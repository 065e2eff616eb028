"""The Task Description Language (Section 3.4).

TDL is the compiler/runtime contract: a small language describing
sequences of accelerator invocations. Three block kinds exist:

* ``COMP`` — one accelerator invocation (opcode + parameter file);
* ``PASS`` — a chain of COMPs forming one datapath: the first reads the
  pass input from DRAM, the last writes the pass output, intermediates
  flow through tile local memory;
* ``LOOP`` — repeat the contained passes N times, re-armed by the
  configuration unit without host involvement.

Concrete syntax (produced by the compiler, parsed by the runtime)::

    LOOP 128 {
      PASS {
        COMP RESMP reshape.para
        COMP FFT fft.para
      }
    }
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Union

#: Distinct TDL texts the parse memo keeps; past this the least
#: recently used entry is evicted.
PARSE_MEMO_ENTRIES = 1024


class TdlError(Exception):
    """Raised on malformed TDL text or trees."""


@dataclass(frozen=True)
class Comp:
    """One accelerator invocation: which accelerator, which params."""

    accel: str
    param_file: str

    def __post_init__(self) -> None:
        if not self.accel or not self.param_file:
            raise TdlError("COMP needs an accelerator and a param file")


@dataclass(frozen=True)
class Pass:
    """A chain of COMPs with one DRAM input and one DRAM output."""

    comps: tuple

    def __post_init__(self) -> None:
        if not self.comps:
            raise TdlError("PASS must contain at least one COMP")
        for comp in self.comps:
            if not isinstance(comp, Comp):
                raise TdlError("PASS may only contain COMP blocks")

    @property
    def chained(self) -> bool:
        return len(self.comps) > 1


@dataclass(frozen=True)
class Loop:
    """Repeat the contained passes ``count`` times."""

    count: int
    body: tuple

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise TdlError("LOOP count must be positive")
        if not self.body:
            raise TdlError("LOOP must contain at least one PASS")
        for item in self.body:
            if not isinstance(item, Pass):
                raise TdlError("LOOP may only contain PASS blocks")


Block = Union[Pass, Loop]


@dataclass(frozen=True)
class TdlProgram:
    """A full accelerator-descriptor program."""

    blocks: tuple

    def __post_init__(self) -> None:
        if not self.blocks:
            raise TdlError("empty TDL program")
        for block in self.blocks:
            if not isinstance(block, (Pass, Loop)):
                raise TdlError("top level may only hold PASS/LOOP blocks")

    def comps(self) -> List[Comp]:
        """All COMP blocks, in execution order (loops not unrolled)."""
        out: List[Comp] = []
        for block in self.blocks:
            passes = block.body if isinstance(block, Loop) else (block,)
            for p in passes:
                out.extend(p.comps)
        return out

    def invocation_count(self) -> int:
        """Accelerator activations including loop trips."""
        total = 0
        for block in self.blocks:
            if isinstance(block, Loop):
                total += block.count * sum(len(p.comps)
                                           for p in block.body)
            else:
                total += len(block.comps)
        return total


# -- printer ---------------------------------------------------------------

def format_tdl(program: TdlProgram) -> str:
    """Serialise a program to TDL text."""
    lines: List[str] = []

    def emit_pass(p: Pass, indent: str) -> None:
        lines.append(f"{indent}PASS {{")
        for comp in p.comps:
            lines.append(f"{indent}  COMP {comp.accel} {comp.param_file}")
        lines.append(f"{indent}}}")

    for block in program.blocks:
        if isinstance(block, Loop):
            lines.append(f"LOOP {block.count} {{")
            for p in block.body:
                emit_pass(p, "  ")
            lines.append("}")
        else:
            emit_pass(block, "")
    return "\n".join(lines) + "\n"


# -- parser ---------------------------------------------------------------

def _tokens(text: str) -> Iterator[str]:
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0]
        for token in line.replace("{", " { ").replace("}", " } ").split():
            yield token


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokens(text))
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ""

    def next(self) -> str:
        token = self.peek()
        if not token:
            raise TdlError("unexpected end of TDL input")
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise TdlError(f"expected {token!r}, got {got!r}")

    def parse_program(self) -> TdlProgram:
        blocks: List[Block] = []
        while self.peek():
            blocks.append(self.parse_block())
        return TdlProgram(blocks=tuple(blocks))

    def parse_block(self) -> Block:
        keyword = self.next()
        if keyword == "PASS":
            return self.parse_pass_body()
        if keyword == "LOOP":
            count_token = self.next()
            try:
                count = int(count_token)
            except ValueError:
                raise TdlError(f"bad LOOP count {count_token!r}")
            self.expect("{")
            body: List[Pass] = []
            while self.peek() != "}":
                self.expect("PASS")
                body.append(self.parse_pass_body())
            self.expect("}")
            return Loop(count=count, body=tuple(body))
        raise TdlError(f"expected PASS or LOOP, got {keyword!r}")

    def parse_pass_body(self) -> Pass:
        self.expect("{")
        comps: List[Comp] = []
        while self.peek() != "}":
            self.expect("COMP")
            accel = self.next()
            param_file = self.next()
            comps.append(Comp(accel=accel, param_file=param_file))
        self.expect("}")
        return Pass(comps=tuple(comps))


@functools.lru_cache(maxsize=PARSE_MEMO_ENTRIES)
def parse_tdl(text: str) -> TdlProgram:
    """Parse TDL text into a program tree.

    The tree is a pure function of the text and is immutable (frozen
    dataclasses over tuples), so parses are memoized process-wide on
    the text and every caller of one text shares one tree; errors are
    never memoized. ``parse_tdl.cache_info()`` and
    ``parse_tdl.cache_clear()`` report on and empty the memo.
    """
    if not text.strip():
        raise TdlError("empty TDL input")
    return _Parser(text).parse_program()


@dataclass
class ParamStore:
    """The 'parameter files' a TDL string references: name -> packed
    accelerator parameters (the PR contents)."""

    files: Dict[str, bytes] = field(default_factory=dict)

    def add(self, name: str, data: bytes) -> None:
        if name in self.files:
            raise TdlError(f"duplicate parameter file {name!r}")
        self.files[name] = data

    def get(self, name: str) -> bytes:
        try:
            return self.files[name]
        except KeyError:
            raise TdlError(f"missing parameter file {name!r}")
