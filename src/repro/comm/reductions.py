"""Reduction operations.

The paper requires reductions whose combining operation is associative
("or can be so treated ... if some degree of nondeterminism is
acceptable").  Our collectives additionally combine operands in a
canonical rank order, so even floating-point reductions are bitwise
deterministic across backends and process counts *for a fixed P*.

Operations work elementwise on NumPy arrays and on scalars.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.obs.metrics import Metric, counter_handle

_APPLIES = counter_handle(
    "comm.reductions.applies", help="binary reduction-operator applications"
)
#: one declaration per operator name
_APPLIES_BY_NAME: dict[str, Metric] = {}


def _applies_handle(name: str) -> Metric:
    handle = _APPLIES_BY_NAME.get(name)
    if handle is None:
        handle = _APPLIES_BY_NAME[name] = counter_handle(
            f"comm.reductions.applies.{name}",
            help=f"applications of the {name!r} operator",
        )
    return handle


def tally_applies(tallies: dict, op: "Op", count: int) -> None:
    """Count *count* applications of *op* in one rank's per-run
    *tallies* (``RankContext.tallies``), which
    :func:`repro.runtime.spmd.publish_run` lands in the registry once,
    when the run ends.  The collectives call this once per call, not per
    application."""
    tallies[_APPLIES] += count
    tallies[_applies_handle(op.name)] += count


@dataclass(frozen=True)
class Op:
    """A binary reduction operator.

    ``fn(a, b)`` must be associative.  ``commutative`` is informational;
    the collectives preserve rank order regardless.
    """

    name: str
    fn: Callable[[Any, Any], Any]
    commutative: bool = True

    def __call__(self, a: Any, b: Any) -> Any:
        return self.fn(a, b)


def make_op(name: str, fn: Callable[[Any, Any], Any], commutative: bool = True) -> Op:
    """Create a user-defined reduction operator."""
    return Op(name=name, fn=fn, commutative=commutative)


def _add(a, b):
    return np.add(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else a + b


def _mul(a, b):
    return (
        np.multiply(a, b)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
        else a * b
    )


def _max(a, b):
    return (
        np.maximum(a, b)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
        else max(a, b)
    )


def _min(a, b):
    return (
        np.minimum(a, b)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
        else min(a, b)
    )


def _land(a, b):
    return (
        np.logical_and(a, b)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
        else bool(a) and bool(b)
    )


def _lor(a, b):
    return (
        np.logical_or(a, b)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
        else bool(a) or bool(b)
    )


#: elementwise sum
SUM = Op("sum", _add)
#: elementwise product
PROD = Op("prod", _mul)
#: elementwise maximum
MAX = Op("max", _max)
#: elementwise minimum
MIN = Op("min", _min)
#: logical and
LAND = Op("land", _land)
#: logical or
LOR = Op("lor", _lor)
