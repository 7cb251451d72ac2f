"""Payload size estimation."""

import numpy as np

from repro.util.nbytes import nbytes_of


class TestNbytesOf:
    def test_none_has_envelope_only(self):
        assert nbytes_of(None) == 16

    def test_ndarray_exact(self):
        arr = np.zeros(100, dtype=np.float64)
        assert nbytes_of(arr) == 16 + 800

    def test_ndarray_2d(self):
        arr = np.zeros((10, 10), dtype=np.int32)
        assert nbytes_of(arr) == 16 + 400

    def test_scalars(self):
        assert nbytes_of(3) == 16 + 8
        assert nbytes_of(2.5) == 16 + 8
        assert nbytes_of(1 + 2j) == 16 + 8
        assert nbytes_of(True) == 16 + 8

    def test_numpy_scalar(self):
        assert nbytes_of(np.float32(1.5)) == 16 + 4

    def test_bytes_and_str(self):
        assert nbytes_of(b"abcd") == 16 + 4
        assert nbytes_of("abcd") == 16 + 4

    def test_memoryview_is_its_buffer_size(self):
        # a view of 6 float64s is 48 bytes, not len() == 6
        assert nbytes_of(memoryview(np.arange(6.0))) == 16 + 48
        assert nbytes_of(memoryview(np.zeros((2, 3), dtype=np.int32))) == 16 + 24
        assert nbytes_of(memoryview(b"abcd")) == 16 + 4

    def test_containers_recursive(self):
        inner = np.zeros(10)
        assert nbytes_of([inner, inner]) == 16 + 2 * (80 + 2)

    def test_dict(self):
        size = nbytes_of({"k": np.zeros(4)})
        assert size == 16 + (1 + 32 + 2)

    def test_tuple_nesting(self):
        assert nbytes_of(((1, 2), 3)) > nbytes_of((1, 2))

    def test_unknown_object_fixed_cost(self):
        class Blob:
            pass

        assert nbytes_of(Blob()) == 16 + 64

    def test_larger_array_larger_estimate(self):
        assert nbytes_of(np.zeros(1000)) > nbytes_of(np.zeros(10))
