"""The accelerator descriptor (Section 2.3): CR + IR + PR in DRAM.

A descriptor is a physically contiguous region of the command space with
three parts:

* Control Region — magic, command word (the hardware polls for START),
  instruction count, and an integrity checksum over the rest of the
  descriptor (the command word is excluded so the doorbell can toggle
  without re-sealing);
* Instruction Region — fixed-width instructions: accelerator
  invocations (opcode + parameter size/address) and control
  instructions (LOOP / ENDLOOP / ENDPASS);
* Parameter Region — the packed per-invocation parameters the
  instructions point at.

``encode`` lowers a TDL program to descriptor bytes; ``decode`` is what
the configuration unit's fetch/decode units do when START is observed.
"""

from __future__ import annotations

import functools
import struct
import zlib
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.tdl import Loop, ParamStore, Pass, TdlProgram

MAGIC = 0x4D45414C            # 'MEAL'

CMD_IDLE = 0
CMD_START = 1

#: Instruction kinds in the IR.
KIND_ACCEL = 0
KIND_LOOP = 1
KIND_ENDLOOP = 2
KIND_ENDPASS = 3

_CR = struct.Struct("<IIII")          # magic, command, n_instr, checksum
_INSTR = struct.Struct("<BBHIq")      # opcode, kind, pad, size, addr

CR_BYTES = _CR.size
INSTR_BYTES = _INSTR.size

#: Byte offsets of the CR's mutable command word and its checksum word.
COMMAND_OFFSET = 4
CHECKSUM_OFFSET = 12

#: Opcode name <-> number mapping (matches the accelerator classes).
OPCODES = {"AXPY": 1, "DOT": 2, "GEMV": 3, "SPMV": 4, "RESMP": 5,
           "FFT": 6, "RESHP": 7}
OPCODE_NAMES = {v: k for k, v in OPCODES.items()}

#: Distinct (program, parameter bytes, base address) lowerings the
#: encode memo keeps; past this the least recently used is evicted.
ENCODE_MEMO_ENTRIES = 1024


class DescriptorError(Exception):
    """Raised on malformed descriptors."""


class DescriptorIntegrityError(DescriptorError):
    """The descriptor image fails its integrity checksum (corruption)."""


@dataclass(frozen=True)
class Instruction:
    """One decoded IR entry."""

    kind: int
    opcode: int = 0
    param_size: int = 0
    param_addr: int = 0

    @property
    def accel_name(self) -> str:
        if self.kind != KIND_ACCEL:
            raise DescriptorError("not an accelerator instruction")
        try:
            return OPCODE_NAMES[self.opcode]
        except KeyError:
            raise DescriptorError(f"unknown opcode {self.opcode}")


@dataclass(frozen=True)
class EncodedDescriptor:
    """Descriptor bytes plus layout metadata."""

    data: bytes
    base_pa: int
    n_instructions: int
    pr_offset: int

    @property
    def size(self) -> int:
        return len(self.data)

    @functools.cached_property
    def start_image(self) -> bytes:
        """The image with START in its command word (what every
        delivery writes), built once per descriptor."""
        start = bytearray(self.data)
        set_command(start, CMD_START)
        return bytes(start)


def _instruction_count(program: TdlProgram,
                       blobs: Tuple[bytes, ...]) -> int:
    n_ctrl = 0
    for block in program.blocks:
        if isinstance(block, Loop):
            n_ctrl += 2 + len(block.body)       # LOOP, ENDLOOP, ENDPASSes
        else:
            n_ctrl += 1                          # ENDPASS
    return len(blobs) + n_ctrl                   # one ACCEL per COMP


def param_blobs(program: TdlProgram,
                params: ParamStore) -> Tuple[bytes, ...]:
    """The parameter bytes the program's COMPs reference, in order.

    Validates each COMP as lowering meets it: an accelerator with no
    opcode raises :class:`DescriptorError`, a missing parameter file
    :class:`~repro.core.tdl.TdlError`.
    """
    blobs = []
    for comp in program.comps():
        if comp.accel not in OPCODES:
            raise DescriptorError(
                f"no opcode for accelerator {comp.accel!r}")
        blobs.append(bytes(params.get(comp.param_file)))
    return tuple(blobs)


def descriptor_size(program: TdlProgram, blobs: Tuple[bytes, ...]) -> int:
    """Bytes of the descriptor ``encode_blobs`` builds (at any base)."""
    return (CR_BYTES + _instruction_count(program, blobs) * INSTR_BYTES
            + sum(len(b) for b in blobs))


def encode(program: TdlProgram, params: ParamStore,
           base_pa: int) -> EncodedDescriptor:
    """Lower a TDL program into descriptor bytes at ``base_pa``.

    The PR follows the IR immediately; parameter addresses inside the IR
    are absolute physical addresses, as the hardware expects.
    """
    return encode_blobs(program, param_blobs(program, params), base_pa)


@functools.lru_cache(maxsize=ENCODE_MEMO_ENTRIES)
def encode_blobs(program: TdlProgram, blobs: Tuple[bytes, ...],
                 base_pa: int) -> EncodedDescriptor:
    """Lower a program whose COMPs take ``blobs`` (see
    :func:`param_blobs`) into descriptor bytes at ``base_pa``.

    The descriptor is a pure function of exactly these three values and
    is immutable, so lowerings are memoized process-wide on them and a
    hit returns the stored descriptor. ``encode_blobs.cache_info()``
    and ``encode_blobs.cache_clear()`` report on and empty the memo.
    """
    n_comps = len(program.comps())
    if len(blobs) != n_comps:
        raise DescriptorError(
            f"{n_comps} COMPs but {len(blobs)} parameter blobs")
    # two-phase: sizes first (parameter addresses depend on IR length)
    n_instr = _instruction_count(program, blobs)
    pr_offset = CR_BYTES + n_instr * INSTR_BYTES
    pr_base = base_pa + pr_offset
    out = bytearray(_CR.pack(MAGIC, CMD_IDLE, n_instr, 0))
    pr = bytearray()
    blob_iter = iter(blobs)

    def lower_pass(p: Pass) -> None:
        for comp in p.comps:
            blob = next(blob_iter)
            out.extend(_INSTR.pack(OPCODES[comp.accel], KIND_ACCEL, 0,
                                   len(blob), pr_base + len(pr)))
            pr.extend(blob)
        out.extend(_INSTR.pack(0, KIND_ENDPASS, 0, 0, 0))

    for block in program.blocks:
        if isinstance(block, Loop):
            out.extend(_INSTR.pack(0, KIND_LOOP, 0, block.count, 0))
            for p in block.body:
                lower_pass(p)
            out.extend(_INSTR.pack(0, KIND_ENDLOOP, 0, 0, 0))
        else:
            lower_pass(block)
    out.extend(pr)
    struct.pack_into("<I", out, CHECKSUM_OFFSET, descriptor_checksum(out))
    return EncodedDescriptor(data=bytes(out), base_pa=base_pa,
                             n_instructions=n_instr, pr_offset=pr_offset)


def descriptor_checksum(data) -> int:
    """CRC32 over the descriptor with the command and checksum words
    zeroed — covers the magic, the instruction count, the whole IR, and
    the whole PR, so any aligned-word corruption outside the doorbell is
    caught with certainty (CRC32 detects all <=32-bit bursts)."""
    buf = bytearray(data)
    if len(buf) < CR_BYTES:
        raise DescriptorError("descriptor shorter than its control region")
    struct.pack_into("<I", buf, COMMAND_OFFSET, 0)
    struct.pack_into("<I", buf, CHECKSUM_OFFSET, 0)
    return zlib.crc32(bytes(buf)) & 0xFFFFFFFF


def verify_integrity(data: bytes) -> None:
    """Check a full descriptor image against its sealed checksum.

    Raises :class:`DescriptorIntegrityError` on mismatch. This is what
    the configuration unit's fetch unit runs before dispatching.
    """
    if len(data) < CR_BYTES:
        raise DescriptorIntegrityError(
            "descriptor shorter than its control region")
    (stored,) = struct.unpack_from("<I", data, CHECKSUM_OFFSET)
    actual = descriptor_checksum(data)
    if stored != actual:
        raise DescriptorIntegrityError(
            f"descriptor checksum mismatch: stored {stored:#010x}, "
            f"computed {actual:#010x}")


def decode_control(data: bytes) -> Tuple[int, int]:
    """Read (command, n_instructions) from the CR; validates the magic."""
    if len(data) < CR_BYTES:
        raise DescriptorError("descriptor shorter than its control region")
    magic, command, n_instr, _ = _CR.unpack_from(data, 0)
    if magic != MAGIC:
        raise DescriptorError(f"bad descriptor magic {magic:#x}")
    return command, n_instr


def decode_instructions(data: bytes, n_instr: int) -> List[Instruction]:
    """Decode the IR that follows the CR."""
    need = CR_BYTES + n_instr * INSTR_BYTES
    if len(data) < need:
        raise DescriptorError("descriptor truncated inside the IR")
    out = []
    for i in range(n_instr):
        opcode, kind, _, size, addr = _INSTR.unpack_from(
            data, CR_BYTES + i * INSTR_BYTES)
        if kind not in (KIND_ACCEL, KIND_LOOP, KIND_ENDLOOP, KIND_ENDPASS):
            raise DescriptorError(f"unknown instruction kind {kind}")
        out.append(Instruction(kind=kind, opcode=opcode, param_size=size,
                               param_addr=addr))
    return out


def set_command(data: bytearray, command: int) -> None:
    """Write the command word in place (the doorbell the CR monitors).

    The integrity checksum deliberately excludes this word, so ringing
    the doorbell does not invalidate a sealed descriptor."""
    struct.pack_into("<I", data, COMMAND_OFFSET, command)
