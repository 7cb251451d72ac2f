"""Sorting applications: mergesort (three ways) and quicksort."""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro.apps.sorting.common import sorted_keys
from repro.apps.sorting import (
    merge_cost,
    merge_sorted,
    merge_two_sorted,
    one_deep_mergesort,
    one_deep_quicksort,
    sequential_mergesort,
    sequential_sort_time,
    sort_cost,
    traditional_mergesort,
)

int_arrays = hnp.arrays(
    dtype=np.int64,
    shape=st.integers(0, 400),
    elements=st.integers(-(10**9), 10**9),
)


class TestMergePrimitives:
    def test_merge_two_basic(self):
        a = np.array([1, 3, 5])
        b = np.array([2, 4, 6])
        assert list(merge_two_sorted(a, b)) == [1, 2, 3, 4, 5, 6]

    def test_merge_two_empty(self):
        assert list(merge_two_sorted(np.array([]), np.array([1]))) == [1]
        assert list(merge_two_sorted(np.array([1]), np.array([]))) == [1]

    def test_merge_stability(self):
        """Equal keys: all of `a`'s occurrences precede `b`'s."""
        a = np.array([5, 5])
        b = np.array([5])
        merged = merge_two_sorted(a, b)
        assert list(merged) == [5, 5, 5]

    def test_merge_two_stability_on_bits(self):
        """-0.0 == 0.0, so only a stable merge keeps every `a` zero ahead
        of every `b` zero; the long runs with a tail of larger keys are
        what an unstable sort's partitioning visibly reorders."""
        assert list(np.signbit(merge_two_sorted([-0.0], [0.0]))) == [True, False]
        assert list(np.signbit(merge_two_sorted([0.0], [-0.0]))) == [False, True]
        neg = np.r_[np.full(1000, -0.0), np.ones(1000)]
        pos = np.r_[np.full(1000, 0.0), np.ones(1000)]
        signs = np.signbit(merge_two_sorted(neg, pos)[:2000])
        assert signs[:1000].all() and not signs[1000:].any()
        signs = np.signbit(merge_two_sorted(pos, neg)[:2000])
        assert not signs[:1000].any() and signs[1000:].all()

    @pytest.mark.parametrize("order", itertools.permutations(range(3)))
    def test_merge_k_stability_on_bits(self, order):
        """Equal keys come out in run order: each run is NaNs (all equal
        to a sort) whose payload bits carry the run's index."""
        quiet_nan = np.array(np.nan).view(np.uint64)
        runs = [np.full(700, quiet_nan + i, dtype=np.uint64).view(np.float64) for i in order]
        merged = merge_sorted(runs)
        assert list(merged.view(np.uint64) - quiet_nan) == list(np.repeat(order, 700))

    @pytest.mark.parametrize(
        "dtypes",
        [
            (np.int32, np.int32),
            (np.int32, np.int64),
            (np.int64, np.float64),
            (np.float64, np.int32),
            (np.int32, np.int64, np.float64),
        ],
    )
    def test_merge_dtype_is_result_type(self, dtypes):
        runs = [np.arange(i, i + 5).astype(dt) for i, dt in enumerate(dtypes)]
        assert merge_sorted(runs).dtype == np.result_type(*runs)
        assert merge_sorted(runs[::-1]).dtype == np.result_type(*runs)
        if len(runs) == 2:
            assert merge_two_sorted(*runs).dtype == np.result_type(*runs)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_merge_result_is_fresh_and_inputs_untouched(self, k, rng):
        runs = [np.sort(rng.integers(0, 50, size=40)) for _ in range(k)]
        kept = [r.copy() for r in runs]
        merged = merge_sorted(runs) if k > 2 else merge_two_sorted(*runs)
        assert not any(np.shares_memory(merged, r) for r in runs)
        merged[...] = -1
        assert all(np.array_equal(r, c) for r, c in zip(runs, kept))

    @given(a=int_arrays, b=int_arrays)
    @example(a=np.array([3, 3, 7], dtype=np.int64), b=np.array([3, 7, 7], dtype=np.int64))
    @example(a=np.array([], dtype=np.int64), b=np.array([1, 1], dtype=np.int64))
    def test_merge_two_property(self, a, b):
        a, b = np.sort(a), np.sort(b)
        merged = merge_two_sorted(a, b)
        assert np.array_equal(merged, np.sort(np.concatenate([a, b])))

    @given(
        arrays=st.lists(int_arrays, min_size=1, max_size=6),
    )
    @example(arrays=[np.array([2, 2, 5], dtype=np.int64)] * 3)
    @example(
        arrays=[
            np.array([], dtype=np.int64),
            np.array([4, 4], dtype=np.int64),
            np.array([], dtype=np.int64),
            np.array([4], dtype=np.int64),
        ]
    )
    @settings(max_examples=40)
    def test_merge_k_property(self, arrays):
        sorted_arrays = [np.sort(a) for a in arrays]
        merged = merge_sorted(sorted_arrays)
        assert np.array_equal(merged, np.sort(np.concatenate(sorted_arrays)))

    def test_merge_sorted_all_empty(self):
        assert merge_sorted([np.array([]), np.array([])]).size == 0


#: every dtype whose equal keys are indistinguishable (``dtype.kind in "biu"``)
INTEGER_KEY_DTYPES = [np.bool_, *(np.dtype(f"{kind}{size}").type for kind in "iu" for size in (1, 2, 4, 8))]


def _bits_of_stable_sort(a: np.ndarray) -> tuple:
    out = np.sort(a, kind="stable")
    return out.dtype, out.shape, out.tobytes()


def _bits(a: np.ndarray) -> tuple:
    return a.dtype, a.shape, a.tobytes()


def _extreme_keys(dtype) -> st.SearchStrategy:
    """Arrays of *dtype* drawn from a handful of values (many duplicates),
    the dtype's extremes, or its whole range."""
    dtype = np.dtype(dtype)
    if dtype.kind == "b":
        elements = st.booleans()
    else:
        info = np.iinfo(dtype)
        elements = st.one_of(
            st.integers(info.min, info.max),
            st.sampled_from([info.min, info.min + 1, 0, 1, info.max - 1, info.max]),
            st.integers(0, 3),
        )
    return hnp.arrays(dtype=dtype, shape=st.integers(0, 300), elements=elements)


class TestSortedKeys:
    """``sorted_keys`` is ``np.sort(kind="stable")`` byte for byte: by the
    default sort where no observer could tell (bool and integer keys),
    by the stable sort everywhere else."""

    @pytest.mark.parametrize("dtype", INTEGER_KEY_DTYPES, ids=lambda d: np.dtype(d).name)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_integer_keys_match_the_stable_sort(self, dtype, data):
        a = data.draw(_extreme_keys(dtype))
        kept = a.copy()
        assert _bits(sorted_keys(a)) == _bits_of_stable_sort(a)
        assert _bits(a) == _bits(kept), "the input is not sorted in place"
        # ... and already sorted, reversed, and as a merge of up to 16 sorted runs
        ordered = np.sort(a, kind="stable")
        assert _bits(sorted_keys(ordered)) == _bits(ordered)
        assert _bits(sorted_keys(ordered[::-1])) == _bits(ordered)
        nruns = data.draw(st.integers(1, 16))
        runs = [np.sort(run, kind="stable") for run in np.array_split(a, nruns)]
        assert _bits(merge_sorted(runs)) == _bits_of_stable_sort(np.concatenate(runs))

    @pytest.mark.parametrize("dtype", INTEGER_KEY_DTYPES, ids=lambda d: np.dtype(d).name)
    def test_sixteen_presorted_runs_of_integer_keys(self, dtype, rng):
        """sim_comm/mergesort's shape: 16 sorted runs laid end to end."""
        high = 1 if np.dtype(dtype).kind == "b" else np.iinfo(dtype).max
        runs = [
            np.sort(rng.integers(0, high, size=4096, dtype=dtype, endpoint=True))
            for _ in range(16)
        ]
        laid = np.concatenate(runs)
        assert _bits(sorted_keys(laid)) == _bits_of_stable_sort(laid)
        assert _bits(merge_sorted(runs)) == _bits_of_stable_sort(laid)

    @pytest.mark.parametrize("dtype", INTEGER_KEY_DTYPES, ids=lambda d: np.dtype(d).name)
    def test_empty_and_single_key(self, dtype):
        for a in (np.empty(0, dtype=dtype), np.ones(1, dtype=dtype)):
            assert _bits(sorted_keys(a)) == _bits(a)
            assert sorted_keys(a) is not a

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_keys_keep_the_stable_sort(self, dtype, rng):
        """Equal floats differ in bits — signed zeros, NaN payloads — and
        the long runs with a tail of larger keys are what NumPy's default
        sort visibly reorders (it does, on both inputs, at this size)."""
        zeros = np.r_[np.full(1000, 0.0), np.full(1000, -0.0), np.ones(1000)].astype(dtype)
        assert _bits(sorted_keys(zeros)) == _bits_of_stable_sort(zeros)
        signs = np.signbit(sorted_keys(zeros)[:2000])
        assert not signs[:1000].any() and signs[1000:].all()
        uint = np.uint32 if dtype is np.float32 else np.uint64
        quiet_nan = np.array(np.nan, dtype=dtype).view(uint)
        tags = rng.permutation(2000).astype(uint)
        nans = np.r_[(quiet_nan + tags).view(dtype), np.ones(500, dtype=dtype)]
        # ones first, then every NaN in input order: payloads intact
        assert list(sorted_keys(nans)[500:].view(uint) - quiet_nan) == list(tags)
        assert _bits(sorted_keys(nans)) == _bits_of_stable_sort(nans)

    def test_complex_keys_keep_the_stable_sort(self, rng):
        z = np.empty(4000, dtype=np.complex128)
        z.real = np.r_[np.where(rng.random(3000) < 0.5, 0.0, -0.0), np.ones(1000)]
        z.imag = np.r_[np.where(rng.random(3000) < 0.5, 0.0, -0.0), np.zeros(1000)]
        assert _bits(sorted_keys(z)) == _bits_of_stable_sort(z)
        assert _bits(merge_sorted([z[:1500], z[1500:3000]])) == _bits_of_stable_sort(z[:3000])

    def test_object_and_record_keys_keep_the_stable_sort(self):
        equal = [1, 1.0, True, 1, 1.0, True, 0, False]
        keys = np.array(equal, dtype=object)
        assert [type(k) for k in sorted_keys(keys)] == [type(k) for k in np.sort(keys, kind="stable")]
        records = np.array([(2, 0.0), (1, -0.0), (1, 0.0), (2, -0.0)], dtype="i4,f8")
        assert _bits(sorted_keys(records)) == _bits_of_stable_sort(records)

    def test_the_stable_sort_is_spelled_once(self):
        """Every key sort under the one-deep applications goes through
        ``sorted_keys``; quicksort's ``argsort`` orders
        an index, where ties do show, and stays stable."""
        src = Path(repro.__file__).parent
        files = [
            *(src / "apps" / "sorting").glob("*.py"),
            *(src / "util").glob("*.py"),
        ]
        asked_for_stable = sorted(
            (path.name, call.func.attr)
            for path in files
            for call in ast.walk(ast.parse(path.read_text()))
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            for kw in call.keywords
            if kw.arg == "kind"
            and any(isinstance(n, ast.Constant) and n.value == "stable" for n in ast.walk(kw.value))
        )
        assert asked_for_stable == [("quicksort.py", "argsort"), ("sampling.py", "sort")]


class TestSequentialMergesort:
    @given(arr=int_arrays)
    @settings(max_examples=40)
    def test_sorts(self, arr):
        assert np.array_equal(sequential_mergesort(arr), np.sort(arr))

    def test_does_not_mutate_input(self):
        arr = np.array([3, 1, 2])
        sequential_mergesort(arr)
        assert list(arr) == [3, 1, 2]

    def test_cost_model(self):
        assert sort_cost(0) == 0.0
        assert sort_cost(1) == 0.0
        assert sort_cost(1024) == pytest.approx(4.0 * 1024 * 10)
        assert merge_cost(100, ways=1) == 0.0
        assert merge_cost(8, ways=4) == pytest.approx(6.0 * 8 * 2)

    def test_sequential_time_positive(self):
        from repro.machines.catalog import INTEL_DELTA

        assert sequential_sort_time(10**6, INTEL_DELTA) > 0


class TestOneDeepMergesort:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 8])
    def test_sorts_across_rank_counts(self, p, rng):
        data = rng.integers(-(10**6), 10**6, size=1000)
        res = one_deep_mergesort().run(p, data)
        assert np.array_equal(np.concatenate(res.values), np.sort(data))

    @given(arr=int_arrays, p=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_property(self, arr, p):
        res = one_deep_mergesort().run(p, arr)
        assert np.array_equal(np.concatenate(res.values), np.sort(arr))

    def test_duplicate_heavy_input(self):
        data = np.repeat([7, 3, 7, 1], 100)
        res = one_deep_mergesort().run(4, data)
        assert np.array_equal(np.concatenate(res.values), np.sort(data))

    def test_already_sorted(self):
        data = np.arange(500)
        res = one_deep_mergesort().run(5, data)
        assert np.array_equal(np.concatenate(res.values), data)

    def test_reverse_sorted(self):
        data = np.arange(500)[::-1].copy()
        res = one_deep_mergesort().run(5, data)
        assert np.array_equal(np.concatenate(res.values), np.sort(data))

    def test_floats(self, rng):
        data = rng.normal(size=800)
        res = one_deep_mergesort().run(4, data)
        assert np.array_equal(np.concatenate(res.values), np.sort(data))

    def test_rank_ranges_ordered(self, rng):
        """Post-condition from the paper: rank i's keys all precede rank
        i+1's keys."""
        data = rng.integers(0, 10**6, size=2000)
        res = one_deep_mergesort().run(6, data)
        for a, b in zip(res.values, res.values[1:]):
            if a.size and b.size:
                assert a[-1] <= b[0]


class TestOneDeepQuicksort:
    @pytest.mark.parametrize("p", [1, 2, 5, 8])
    def test_sorts(self, p, rng):
        data = rng.integers(-(10**6), 10**6, size=1500)
        res = one_deep_quicksort().run(p, data)
        assert np.array_equal(np.concatenate(res.values), np.sort(data))

    @given(arr=int_arrays, p=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_property(self, arr, p):
        res = one_deep_quicksort().run(p, arr)
        assert np.array_equal(np.concatenate(res.values), np.sort(arr))

    def test_constant_input(self):
        data = np.zeros(100, dtype=np.int64)
        res = one_deep_quicksort().run(4, data)
        assert np.array_equal(np.concatenate(res.values), data)

    def test_master_strategy(self, rng):
        data = rng.integers(0, 1000, size=600)
        res = one_deep_quicksort(strategy="master").run(3, data)
        assert np.array_equal(np.concatenate(res.values), np.sort(data))


class TestTraditionalMergesort:
    @pytest.mark.parametrize("p", [1, 2, 3, 6, 8])
    def test_sorts(self, p, rng):
        data = rng.integers(0, 10**6, size=900)
        res = traditional_mergesort().run(p, data)
        assert np.array_equal(res.values[0], np.sort(data))

    @given(arr=int_arrays, p=st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_property(self, arr, p):
        res = traditional_mergesort().run(p, arr)
        assert np.array_equal(res.values[0], np.sort(arr))


class TestOneDeepBeatsTraditional:
    def test_virtual_time_comparison(self, rng):
        """The paper's headline claim (Figure 6): the one-deep version is
        significantly faster on a message-passing machine."""
        from repro.machines.catalog import INTEL_DELTA

        data = rng.integers(0, 10**6, size=1 << 15)
        p = 16
        t_onedeep = one_deep_mergesort().run(p, data, machine=INTEL_DELTA).elapsed
        t_trad = traditional_mergesort().run(p, data, machine=INTEL_DELTA).elapsed
        assert t_onedeep < t_trad / 2
