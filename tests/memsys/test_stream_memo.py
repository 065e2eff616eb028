"""Property tests for the stream-pricing memo behind ``simulate_streams``.

The memo is keyed by value on everything a drain reads (device type,
timing, energy, unit count, reorder window, address mapping, ECC model,
the non-empty stream specs and the sample window). These tests pin the
three things that make it safe without any invalidation: a hit is the
bit-exact result of a fresh simulation, callers get private copies, and
a change to any one key field is a miss.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.faults.ecc import SecdedModel
from repro.memsys import trace
from repro.memsys.ddr import DdrMemory
from repro.memsys.dram3d import StackedDram
from repro.memsys.timing import DDR3_1600_CHANNEL, HMC_VAULT
from repro.memsys.trace import StreamSpec, simulate_streams
from tests.memsys.test_vectorized_diff import random_stream

SEED = 20150101


@pytest.fixture(autouse=True)
def empty_memo():
    simulate_streams.cache_clear()
    yield
    simulate_streams.cache_clear()


def random_device(rng):
    """An HMC stack or a DDR system with a random row size, reorder
    window and ECC setting."""
    if rng.integers(2):
        timing = HMC_VAULT
        make = StackedDram
    else:
        timing = DDR3_1600_CHANNEL
        make = DdrMemory
    if rng.integers(2):
        timing = timing.with_row_bytes(int(rng.choice([1024, 4096, 8192])))
    device = make(timing=timing)
    device.reorder_window = int(rng.choice([1, 8, 32]))
    device.ecc = SecdedModel() if rng.integers(2) else None
    return device


def random_streams(rng):
    kinds = ("seq", "strided", "gather", "blocked")
    return [random_stream(rng, kinds[int(rng.integers(4))])
            for _ in range(int(rng.integers(1, 4)))]


def fields(result):
    s = result.stats
    return (result.time, result.energy, result.bytes_moved, s.activates,
            s.row_hits, s.row_misses, s.reads, s.writes)


def test_hit_equals_a_fresh_simulation_to_the_bit():
    rng = np.random.default_rng(SEED)
    for _ in range(24):
        device = random_device(rng)
        streams = random_streams(rng)
        window = int(rng.choice([512, 2048, 8192]))
        first = simulate_streams(device, streams, window)
        hit = simulate_streams(device, streams, window)
        info = simulate_streams.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        simulate_streams.cache_clear()
        fresh = simulate_streams(device, streams, window)
        assert simulate_streams.cache_info().misses == 1
        assert fields(hit) == fields(fresh) == fields(first)
        simulate_streams.cache_clear()


def test_all_four_stream_kinds_hit_across_equal_devices():
    rng = np.random.default_rng(SEED + 1)
    device = StackedDram()
    streams = [random_stream(rng, kind)
               for kind in ("seq", "strided", "gather", "blocked")]
    fresh = fields(simulate_streams(device, streams))
    assert fields(simulate_streams(device, streams)) == fresh
    # an equal device built separately is the same key
    assert fields(simulate_streams(StackedDram(), list(streams))) == fresh
    assert simulate_streams.cache_info().hits == 2


def test_mutating_a_returned_result_leaves_the_memo_intact():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(6):
        device = random_device(rng)
        streams = random_streams(rng)
        result = simulate_streams(device, streams)     # the miss
        pristine = fields(result)
        for _ in range(3):
            result.time = -1.0
            result.energy += 1.0
            result.bytes_moved = 0
            result.stats.activates += 7
            result.stats.merge(result.stats)
            result = simulate_streams(device, streams)  # a hit
            assert fields(result) == pristine
        assert simulate_streams.cache_info().hits == 3
        simulate_streams.cache_clear()


def test_any_key_field_change_misses():
    rng = np.random.default_rng(SEED + 3)
    streams = random_streams(rng)
    base = StackedDram()
    simulate_streams(base, streams, 4096)
    assert simulate_streams.cache_info().misses == 1

    def misses_after(device, stream_set=streams, window=4096):
        before = simulate_streams.cache_info().misses
        simulate_streams(device, stream_set, window)
        return simulate_streams.cache_info().misses - before

    with_ecc = StackedDram(ecc=SecdedModel())
    assert misses_after(with_ecc) == 1
    wider = StackedDram()
    wider.reorder_window = 32
    assert misses_after(wider) == 1
    assert misses_after(StackedDram(HMC_VAULT.with_row_bytes(4096))) == 1
    assert misses_after(StackedDram(vaults=8)) == 1
    assert misses_after(base, window=2048) == 1
    moved = [replace(s, base=s.base + 4096) for s in streams]
    assert misses_after(base, moved) == 1
    # and the unchanged key is still a hit
    assert misses_after(StackedDram()) == 0


def test_empty_streams_bypass_the_memo():
    result = simulate_streams(StackedDram(), [StreamSpec(0, 0, 4)])
    assert fields(result) == (0.0, 0.0, 0, 0, 0, 0, 0, 0)
    assert simulate_streams.cache_info().currsize == 0


def test_memo_is_bounded_least_recently_used(monkeypatch):
    monkeypatch.setattr(trace._MEMO, "maxsize", 2)
    device = StackedDram()
    a, b, c = ([StreamSpec(base=base, n_elems=256, elem_bytes=4)]
               for base in (0, 1 << 20, 2 << 20))
    simulate_streams(device, a)
    simulate_streams(device, b)
    simulate_streams(device, a)          # a is now the most recent
    simulate_streams(device, c)          # evicts b
    assert simulate_streams.cache_info().currsize == 2
    misses = simulate_streams.cache_info().misses
    simulate_streams(device, a)
    assert simulate_streams.cache_info().misses == misses
    simulate_streams(device, b)
    assert simulate_streams.cache_info().misses == misses + 1
