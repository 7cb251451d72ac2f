"""MPI-like communication library plus the archetype operations.

All collectives are implemented *on top of* point-to-point messaging with
the classical algorithms (binomial broadcast/reduce, recursive-doubling
allreduce — the paper's Figure 8 — dissemination barrier, ring allgather,
pairwise all-to-all), so the virtual-time cost of a collective emerges
from its real message pattern, exactly as on the paper's testbeds.

The archetype-specific operations the paper calls for — general data
redistribution (§4.3), ghost-boundary exchange (§4.3), and reductions —
live in :mod:`repro.comm.redistribute`, :mod:`repro.comm.boundary`, and
:mod:`repro.comm.reductions`.  A ghost exchange has two entry points:
``start_exchange`` (one array or several packed into one message per
neighbour, blocking or overlapped) and ``exchange_ghosts``, its blocking
one-array form.
"""

from repro.comm.communicator import Comm
from repro.comm.reductions import LAND, LOR, MAX, MIN, PROD, SUM, Op, make_op
from repro.comm.layout import (
    Layout,
    block_layout,
    col_layout,
    replicated_layout,
    row_layout,
    single_owner_layout,
)
from repro.comm.cart import CartGrid, choose_proc_grid
from repro.comm.redistribute import redistribute
from repro.comm.boundary import GhostExchange, exchange_ghosts, start_exchange
from repro.runtime.request import Request

__all__ = [
    "Comm",
    "Request",
    "Op",
    "make_op",
    "SUM",
    "PROD",
    "MAX",
    "MIN",
    "LAND",
    "LOR",
    "Layout",
    "row_layout",
    "col_layout",
    "block_layout",
    "single_owner_layout",
    "replicated_layout",
    "CartGrid",
    "choose_proc_grid",
    "redistribute",
    "GhostExchange",
    "exchange_ghosts",
    "start_exchange",
]
