"""repro.kernels — the declarative par-loop layer.

Programs declare *what* each grid sweep reads and writes (``Arg``: a
grid, a ``READ``/``WRITE``/``RW``/``INC`` access mode and a halo depth)
and give its body as a plain callable (``Kernel`` takes one view per
argument, ``RegionKernel`` the region's slices); the runtime fuses
adjacent compatible loops, and hoists and packs ghost exchanges.  A
fused group has one execution walk, row tile by row tile; the tile size
changes no value, clock or trace (bodies are elementwise).  See ``docs/kernel_layer.md``.
"""

from repro.kernels.ir import (
    INC,
    READ,
    RW,
    WRITE,
    Access,
    Arg,
    Kernel,
    ParLoop,
    RegionKernel,
    StencilView,
    split_deep_shell,
)
from repro.kernels.plan import LoopGroup, build_groups, can_fuse, plan_exchanges
from repro.kernels.runtime import KernelEngine

__all__ = [
    "Access",
    "READ",
    "WRITE",
    "RW",
    "INC",
    "Arg",
    "Kernel",
    "RegionKernel",
    "ParLoop",
    "StencilView",
    "split_deep_shell",
    "LoopGroup",
    "build_groups",
    "can_fuse",
    "plan_exchanges",
    "KernelEngine",
]
