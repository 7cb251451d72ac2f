"""repro.kernels — the declarative par-loop layer.

Programs declare *what* each grid sweep reads and writes (``Dat`` data
descriptors, ``READ``/``WRITE``/``RW``/``INC`` access modes with halo
depths, ``Kernel`` bodies); the runtime fuses adjacent compatible
loops, and hoists and packs ghost exchanges.  A fused group has one
execution walk, row tile by row tile; the tile size changes no value,
clock or trace (bodies are elementwise).  See ``docs/kernel_layer.md``.
"""

from repro.kernels.ir import (
    INC,
    READ,
    RW,
    WRITE,
    Access,
    Arg,
    Dat,
    ExprKernel,
    Kernel,
    ParLoop,
    Ref,
    RegionKernel,
    StencilView,
    dat_of,
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
    "Dat",
    "dat_of",
    "Kernel",
    "RegionKernel",
    "ExprKernel",
    "Ref",
    "ParLoop",
    "StencilView",
    "split_deep_shell",
    "LoopGroup",
    "build_groups",
    "can_fuse",
    "plan_exchanges",
    "KernelEngine",
]
