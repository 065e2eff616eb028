"""Property tests for the lowering memos behind ``acc_plan``.

Three lowerings are pure functions of values and are memoized on them:

* ``parse_tdl`` on the TDL text;
* ``encode_blobs`` on (program, the parameter bytes its COMPs reference,
  base address);
* a serving runtime's batch lowering on the ``((op, params), ...)``
  tuple of the batch (TDL text and Listing 2 buffer sizes; the
  parameter bytes are packed per call).

These tests pin what makes that safe without any invalidation: a hit is
byte-identical to a fresh lowering and to a reference lowering, a
change to any key value is a miss, errors are never memoized and keep
their type and message, a failed plan takes no command space, and the
serving lowering reads no tile or link health.
"""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.accel import AxpyParams
from repro.core import (DescriptorError, MealibSystem, ParamStore,
                        TdlError, encode, format_tdl, parse_tdl)
from repro.core import descriptor, tdl
from repro.core.descriptor import (CMD_IDLE, CMD_START, encode_blobs,
                                   param_blobs)
from repro.core.tdl import Comp, Loop, Pass, TdlProgram
from repro.eval.workloads import TABLE2
from repro.serving import (BatchPolicy, ServingRuntime, TenantConfig,
                           coalesce)
from repro.serving.batching import call_sizes, lower_batch

SEED = 20150613
SCALE = 0.004
BASES = (0, 0x100, 0x4000_0040, 0x1_2345_6780)


@pytest.fixture(autouse=True)
def empty_memos():
    parse_tdl.cache_clear()
    encode_blobs.cache_clear()
    yield
    parse_tdl.cache_clear()
    encode_blobs.cache_clear()


def reference_encode(program, params, base_pa):
    """Instruction-by-instruction lowering, straight from the layout:
    CR, one 16-byte IR entry per ACCEL/LOOP/ENDLOOP/ENDPASS, then the
    PR with absolute parameter addresses; CRC sealed last."""
    instrs = []                                # (opcode, kind, size, addr)
    blobs = []

    def lower_pass(p):
        for comp in p.comps:
            blobs.append(params.get(comp.param_file))
            instrs.append([descriptor.OPCODES[comp.accel],
                           descriptor.KIND_ACCEL, len(blobs[-1]), None])
        instrs.append([0, descriptor.KIND_ENDPASS, 0, 0])

    for block in program.blocks:
        if isinstance(block, Loop):
            instrs.append([0, descriptor.KIND_LOOP, block.count, 0])
            for p in block.body:
                lower_pass(p)
            instrs.append([0, descriptor.KIND_ENDLOOP, 0, 0])
        else:
            lower_pass(block)
    addr = base_pa + descriptor.CR_BYTES + len(instrs) * 16
    for ins in instrs:
        if ins[3] is None:
            ins[3] = addr
            addr += ins[2]
    out = bytearray(struct.pack("<IIII", descriptor.MAGIC, CMD_IDLE,
                                len(instrs), 0))
    for opcode, kind, size, a in instrs:
        out += struct.pack("<BBHIq", opcode, kind, 0, size, a)
    out += b"".join(blobs)
    struct.pack_into("<I", out, descriptor.CHECKSUM_OFFSET,
                     descriptor.descriptor_checksum(out))
    return bytes(out)


def random_case(rng, shape):
    """A program of the given shape over random parameter blobs."""
    store = ParamStore()
    ops = sorted(descriptor.OPCODES)

    def comp():
        name = f"p{len(store.files)}.para"
        size = int(rng.integers(8, 72))
        store.add(name, rng.integers(0, 256, size, dtype=np.uint8)
                  .tobytes())
        return Comp(ops[int(rng.integers(len(ops)))], name)

    def pass_(n_comps):
        return Pass(tuple(comp() for _ in range(n_comps)))

    if shape == "single":
        blocks = (pass_(1),)
    elif shape == "chained":
        blocks = (pass_(int(rng.integers(2, 4))),)
    elif shape == "loop":
        blocks = (Loop(int(rng.integers(1, 300)),
                       tuple(pass_(int(rng.integers(1, 3)))
                             for _ in range(int(rng.integers(1, 3))))),)
    elif shape == "multi-comp":
        blocks = (pass_(int(rng.integers(4, 7))),)
    else:                                      # multi-pass, mixed
        blocks = tuple(
            pass_(int(rng.integers(1, 3))) if rng.integers(2)
            else Loop(int(rng.integers(1, 9)), (pass_(1),))
            for _ in range(int(rng.integers(2, 6))))
    return TdlProgram(blocks), store


def descriptor_fields(desc):
    return (desc.data, desc.base_pa, desc.n_instructions, desc.pr_offset)


SHAPES = ("single", "chained", "loop", "multi-comp", "multi-pass")


@pytest.mark.parametrize("shape", SHAPES)
def test_hit_matches_fresh_and_reference_encode(shape):
    rng = np.random.default_rng([SEED, SHAPES.index(shape)])
    for _ in range(8):
        program, store = random_case(rng, shape)
        text = format_tdl(program)
        for base in BASES:
            encode_blobs.cache_clear()
            parsed = parse_tdl(text)
            assert parsed == program
            miss = encode(parsed, store, base)
            before = encode_blobs.cache_info()
            hit = encode(parse_tdl(text), store, base)
            after = encode_blobs.cache_info()
            assert after.hits == before.hits + 1
            assert hit is miss
            encode_blobs.cache_clear()
            fresh = encode(program, store, base)
            assert fresh is not hit
            assert descriptor_fields(hit) == descriptor_fields(fresh)
            assert hit.data == reference_encode(program, store, base)
            assert hit.size == descriptor.descriptor_size(
                program, param_blobs(program, store))


def test_parse_hit_is_the_shared_tree():
    text = "LOOP 3 {\n  PASS {\n    COMP AXPY a.para\n  }\n}\n"
    first = parse_tdl(text)
    assert parse_tdl(text) is first
    assert parse_tdl.cache_info().hits == 1
    parse_tdl.cache_clear()
    assert parse_tdl(text) == first


def test_other_base_or_other_bytes_miss():
    rng = np.random.default_rng(SEED)
    program, store = random_case(rng, "multi-pass")
    at_0 = encode(program, store, 0x1000)
    at_1 = encode(program, store, 0x2000)
    assert encode_blobs.cache_info().misses == 2
    assert at_1.data != at_0.data
    assert at_1.data == reference_encode(program, store, 0x2000)

    name = program.comps()[0].param_file
    blob = bytearray(store.files[name])
    blob[0] ^= 0x01
    store.files[name] = bytes(blob)
    changed = encode(program, store, 0x1000)
    assert encode_blobs.cache_info().misses == 3
    assert changed.data != at_0.data
    assert changed.data == reference_encode(program, store, 0x1000)


def test_blob_count_must_match_the_program():
    program = parse_tdl("PASS { COMP AXPY a.para COMP DOT b.para }")
    with pytest.raises(DescriptorError, match="2 COMPs but 1"):
        encode_blobs(program, (b"\x00" * 8,), 0)


def _store():
    store = ParamStore()
    store.add("a.para", AxpyParams(n=64, alpha=2.0, x_pa=0x1000,
                                   y_pa=0x2000).pack())
    return store


#: Messages as the unmemoized lowering raised them.
ERRORS = (
    ("PASS { COMP NOPE a.para }", DescriptorError,
     "no opcode for accelerator 'NOPE'"),
    ("PASS { COMP AXPY missing.para }", TdlError,
     "missing parameter file 'missing.para'"),
    # the accelerator is checked before its parameter file
    ("PASS { COMP NOPE missing.para }", DescriptorError,
     "no opcode for accelerator 'NOPE'"),
    ("PASS { COMP AXPY missing.para COMP NOPE a.para }", TdlError,
     "missing parameter file 'missing.para'"),
    (" \n\t", TdlError, "empty TDL input"),
    ("LOOP x { PASS { COMP AXPY a.para } }", TdlError,
     "bad LOOP count 'x'"),
    ("LOOP 0 { PASS { COMP AXPY a.para } }", TdlError,
     "LOOP count must be positive"),
)


@pytest.mark.parametrize("text,exc,message", ERRORS)
def test_errors_keep_type_and_message_and_take_no_slot(text, exc,
                                                       message):
    system = MealibSystem(stack_bytes=32 << 20)
    free = system.runtime._command_alloc.free_bytes
    for _ in range(2):                 # errors are never memoized
        with pytest.raises(exc) as info:
            system.runtime.acc_plan(text, _store(), 0, 0)
        assert type(info.value) is exc
        assert str(info.value) == message
        assert system.runtime._command_alloc.free_bytes == free
    assert encode_blobs.cache_info().currsize == 0


def test_param_store_mutation_reaches_the_next_plan():
    system = MealibSystem(stack_bytes=32 << 20)
    store = _store()
    text = "PASS { COMP AXPY a.para }"
    first = system.runtime.acc_plan(text, store, 0, 0)
    system.runtime.acc_destroy(first)
    store.files["a.para"] = AxpyParams(n=64, alpha=3.0, x_pa=0x1000,
                                       y_pa=0x2000).pack()
    second = system.runtime.acc_plan(text, store, 0, 0)
    assert second.descriptor.base_pa == first.descriptor.base_pa
    assert second.descriptor.data != first.descriptor.data
    assert second.descriptor.data == reference_encode(
        parse_tdl(text), store, second.descriptor.base_pa)


def test_plan_carries_its_golden_images():
    system = MealibSystem(stack_bytes=32 << 20)
    plan = system.runtime.acc_plan("PASS { COMP AXPY a.para }", _store(),
                                   0, 0)
    data = plan.descriptor.data
    assert plan.idle_image == data
    assert plan.start_image == (data[:descriptor.COMMAND_OFFSET]
                                + struct.pack("<I", CMD_START)
                                + data[descriptor.COMMAND_OFFSET + 4:])
    assert system.space.pa_read(plan.descriptor.base_pa,
                                len(data)) == data


def test_memo_bounds_are_module_constants():
    assert parse_tdl.cache_info().maxsize == tdl.PARSE_MEMO_ENTRIES
    assert encode_blobs.cache_info().maxsize == \
        descriptor.ENCODE_MEMO_ENTRIES


def test_a_fresh_process_starts_with_empty_memos():
    src = Path(__file__).resolve().parents[2] / "src"
    code = ("from repro.core import MealibSystem, parse_tdl\n"
            "from repro.core.descriptor import encode_blobs\n"
            "from repro.serving import ServingRuntime, TenantConfig\n"
            "s = ServingRuntime(MealibSystem(stack_bytes=8 << 20),"
            " [TenantConfig('t')])\n"
            "print(parse_tdl.cache_info().currsize,"
            " encode_blobs.cache_info().currsize,"
            " s._lower.cache_info().currsize)\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}
                         ).stdout
    assert out.split() == ["0", "0", "0"]


# -- serving: the batch lowering -------------------------------------------

def _members(ops, scale=SCALE):
    return tuple((op, TABLE2[op].params(scale)) for op in ops)


BATCHES = tuple(_members(ops, scale) for scale in (SCALE, 2 * SCALE)
                for ops in (("AXPY",), ("DOT",), ("GEMV",), ("SPMV",),
                            ("AXPY", "AXPY", "AXPY"), ("DOT", "DOT"),
                            ("AXPY", "DOT", "GEMV", "SPMV")))


def test_memoized_coalesce_matches_unmemoized():
    served = MealibSystem(stack_bytes=32 << 20)
    direct = MealibSystem(stack_bytes=32 << 20)
    serving = ServingRuntime(served, [TenantConfig("t")])
    for members in BATCHES:
        serving._lower(members)                       # warm the memo
        lowering = serving._lower(members)
        memo_plan = coalesce(served, members, lowering)
        encode_blobs.cache_clear()
        plain = coalesce(direct, members)
        assert memo_plan.descriptor.data == plain.descriptor.data
        assert memo_plan.working_set_bytes == plain.working_set_bytes
        sizes = [call_sizes(direct.layer, op, p) for op, p in members]
        assert lowering.in_size == sum(r for r, _ in sizes)
        assert lowering.out_size == sum(w for _, w in sizes)
        served.runtime.acc_destroy(memo_plan)
        direct.runtime.acc_destroy(plain)
    assert serving._lower.cache_info().hits == len(BATCHES)


def test_batch_parameter_bytes_are_packed_per_call():
    """0.0 == -0.0, so two AXPY calls differing only in the sign of a
    zero alpha share a lowering, but not their parameter bytes."""
    system = MealibSystem(stack_bytes=32 << 20)
    serving = ServingRuntime(system, [TenantConfig("t")])
    pos = (("AXPY", AxpyParams(n=64, alpha=0.0, x_pa=0x1000,
                               y_pa=0x2000)),)
    neg = (("AXPY", AxpyParams(n=64, alpha=-0.0, x_pa=0x1000,
                               y_pa=0x2000)),)
    assert pos == neg
    plan_pos = coalesce(system, pos, serving._lower(pos))
    system.runtime.acc_destroy(plan_pos)
    plan_neg = coalesce(system, neg, serving._lower(neg))
    assert serving._lower.cache_info().hits == 1
    assert plan_neg.descriptor.data != plan_pos.descriptor.data
    assert plan_neg.descriptor.data[-AxpyParams.SIZE:] == neg[0][1].pack()


def test_call_sizes_read_no_tile_or_link_health():
    healthy = MealibSystem(stack_bytes=32 << 20).layer
    degraded = MealibSystem(stack_bytes=32 << 20).layer
    degraded.mark_tile_failed(5)
    degraded.noc.fail_link(0, 1)
    assert degraded.degraded
    for op in sorted(TABLE2):
        params = TABLE2[op].params(SCALE)
        assert call_sizes(degraded, op, params) == \
            call_sizes(healthy, op, params)
    for members in BATCHES:
        assert lower_batch(degraded, members) == \
            lower_batch(healthy, members)


def test_submit_sizes_follow_each_calls_params():
    system = MealibSystem(stack_bytes=32 << 20)
    small = TABLE2["AXPY"].params(SCALE)
    big = TABLE2["AXPY"].params(2 * SCALE)
    r, w = call_sizes(system.layer, "AXPY", small)
    serving = ServingRuntime(system, [TenantConfig("t")],
                             batching=BatchPolicy(max_bytes=r + w))
    flags = [serving.submit("t", "AXPY", p).batchable
             for p in (small, big, small, big)]
    assert flags == [True, False, True, False]
    assert serving._lower.cache_info().hits == 2
