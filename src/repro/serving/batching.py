"""Admission batching: coalescing compatible small calls.

Small AXPY/DOT calls are invocation-dominated — the wbinvd flush,
descriptor store and doorbell cost as much as the pass itself (the
paper's Fig 12 motivation for descriptor-level batching). The serving
runtime therefore coalesces *adjacent* queued calls of one tenant and
one op into a single multi-PASS descriptor::

    PASS { COMP AXPY b0.para }
    PASS { COMP AXPY b1.para }
    ...

paying one invocation for the whole batch. One PASS per member — never
a LOOP — because the configuration unit models every pass
independently: each member's pass cost is bit-identical to the cost of
running it as its own descriptor, so the ``accelerator`` ledger totals
of a batched run and an unbatched run are *exactly* equal (a LOOP
would aggregate the members into one long stream and change the memory
model — a different, not-equivalent program). Functional effects are
likewise identical: passes execute in member order against the same
operand buffers.

Only the fixed per-descriptor costs differ, which is the whole point:
the batch pays one invocation overhead and one fetch instead of one
per member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.runtime import AccPlan
from repro.core.tdl import ParamStore


@dataclass(frozen=True)
class BatchPolicy:
    """Which calls may coalesce, and how far.

    Attributes:
        ops: op names eligible for batching (the invocation-dominated
            BLAS-1 pair by default).
        max_batch: most members one coalesced descriptor may carry.
        max_bytes: "small call" threshold — a call whose working set
            (input + output bytes) exceeds it is never batched; big
            calls amortize their own invocation and would only delay
            their co-members.
    """

    ops: Tuple[str, ...] = ("AXPY", "DOT")
    max_batch: int = 8
    max_bytes: int = 32 << 20

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError("ops must name at least one batchable op")
        if self.max_batch < 1:
            raise ValueError(
                f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_bytes < 1:
            raise ValueError(
                f"max_bytes must be >= 1, got {self.max_bytes}")

    def batchable(self, op: str, working_set_bytes: int) -> bool:
        """May a call of ``op`` with this working set join a batch?"""
        return op in self.ops and working_set_bytes <= self.max_bytes


def call_sizes(layer, op: str, params: object) -> Tuple[int, int]:
    """(input bytes, output bytes) of one call — the Listing 2 buffer
    sizes that size the coherence flush at execute time."""
    streams = layer.accelerator(op).streams(params)
    return (sum(s.total_bytes for s in streams if not s.is_write),
            sum(s.total_bytes for s in streams if s.is_write))


@dataclass(frozen=True)
class BatchLowering:
    """A batch lowered short of its parameter bytes: the TDL text, one
    PASS per member, and the summed Listing 2 buffer sizes."""

    tdl: str
    in_size: int
    out_size: int


def lower_batch(layer,
                members: Sequence[Tuple[str, object]]) -> BatchLowering:
    """Lower ``members`` — ``(op, params)`` pairs — to TDL and sizes.

    A pure function of the members' values and of the layer's
    accelerators (their streams read no tile or link health), so a
    runtime over one layer can memoize it on the member tuple.
    """
    if not members:
        raise ValueError("cannot coalesce an empty batch")
    lines: List[str] = []
    in_size = 0
    out_size = 0
    for i, (op, params) in enumerate(members):
        lines.append(f"PASS {{ COMP {op} b{i}.para }}")
        r, w = call_sizes(layer, op, params)
        in_size += r
        out_size += w
    return BatchLowering("\n".join(lines), in_size, out_size)


def coalesce(system, members: Sequence[Tuple[str, object]],
             lowering: Optional[BatchLowering] = None) -> AccPlan:
    """Lower ``members`` — ``(op, params)`` pairs — into one coalesced
    descriptor, one PASS per member, in member order.

    ``lowering`` is ``lower_batch(system.layer, members)``, computed
    here when not given. The parameter bytes are packed on every call:
    they are not a function of the members' values under ``==``
    (``0.0 == -0.0`` packs two ways).

    A single-member "batch" is exactly the solo descriptor for that
    call (same instruction stream, same parameter bytes); the caller
    owns the returned plan and must ``acc_destroy`` it after use.
    """
    if lowering is None:
        lowering = lower_batch(system.layer, members)
    store = ParamStore()
    for i, (_, params) in enumerate(members):
        store.add(f"b{i}.para", params.pack())
    return system.runtime.acc_plan(lowering.tdl, store,
                                   in_size=lowering.in_size,
                                   out_size=lowering.out_size)
