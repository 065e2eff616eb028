"""Differential test for the vectorized latent-flip placement.

The batched :meth:`FaultInjector.deposit_latent_flips` (``searchsorted``
region placement, batch vault lookup, element-wise thinning) is pinned
against the scalar per-position loop reimplemented here: same return
value, same latent map (entries *and* insertion order), same per-vault
deposit counts, same statistics, and the same PRNG state afterwards —
with and without Arrhenius factors, with and without a vault mapping,
and over region lists that contain zero-size regions.
"""

import numpy as np
import pytest

from repro.faults import FaultInjector
from repro.faults.ecc import ECC_WORD_BITS
from repro.memsys.address import AddressMapping

MAPPING = AddressMapping(interleave_bytes=256, units=16, banks=8,
                         row_bytes=2048)


def reference_deposit(inj, regions, factors=None, cap=1.0,
                      vault_of=None):
    """The scalar placement loop (the pre-vectorization algorithm, kept
    here as the oracle); ``vault_of`` maps one byte address."""
    rate = inj.config.latent_flip_rate
    if rate <= 0.0 or not regions:
        return 0
    total_bits = sum(size for _, size in regions) * 8
    if total_bits <= 0:
        return 0
    rng = inj._latent_rng
    if factors is None:
        k = int(rng.binomial(total_bits, rate))
        if k == 0:
            return 0
        k = min(k, total_bits)
        positions = rng.choice(total_bits, size=k, replace=False)
        uniforms = None
    else:
        k = int(rng.binomial(total_bits, min(rate * cap, 1.0)))
        if k == 0:
            return 0
        k = min(k, total_bits)
        positions = rng.choice(total_bits, size=k, replace=False)
        uniforms = rng.random(k)
    word_mask = ECC_WORD_BITS // 8 - 1
    deposited = 0
    for i, pos in enumerate(sorted(int(p) for p in positions)):
        rest = pos
        for start, size in regions:
            if rest >= size * 8:
                rest -= size * 8
                continue
            byte = start + rest // 8
            vault = vault_of(byte) if vault_of is not None else None
            if uniforms is not None:
                factor = factors[vault] if vault is not None else 1.0
                if uniforms[i] * cap >= factor:
                    break                           # thinned away
            word = byte & ~word_mask
            bit = (byte - word) * 8 + rest % 8
            inj._latent[word] = inj._latent.get(word, 0) | (1 << bit)
            deposited += 1
            if vault is not None:
                inj.latent_deposits_by_vault[vault] = (
                    inj.latent_deposits_by_vault.get(vault, 0) + 1)
            break
    inj.stats.latent_flips_deposited += deposited
    if deposited and inj.on_latent_change is not None:
        inj.on_latent_change()
    return deposited


def random_regions(rng):
    """A few disjoint ``(start, size)`` regions, some of them empty."""
    regions, cursor = [], int(rng.integers(0, 1 << 20))
    for _ in range(int(rng.integers(1, 6))):
        size = int(rng.integers(1, 4096)) * (rng.random() > 0.3)
        regions.append((cursor, size))
        cursor += size + int(rng.integers(0, 1 << 16))
    return regions


def state(inj):
    return (list(inj._latent.items()),
            list(inj.latent_deposits_by_vault.items()),
            inj.stats.latent_flips_deposited,
            inj._latent_rng.bit_generator.state)


@pytest.mark.parametrize("thermal,mapped", [
    (False, False), (True, False), (True, True), (False, True)])
def test_vectorized_deposit_matches_the_scalar_loop(thermal, mapped):
    rng = np.random.default_rng(2015 + 2 * thermal + mapped)
    for seed in range(40):
        fast = FaultInjector(seed=seed, latent_flip_rate=3e-4)
        slow = FaultInjector(seed=seed, latent_flip_rate=3e-4)
        fired = {id(fast): 0, id(slow): 0}
        for inj in (fast, slow):
            inj.on_latent_change = (
                lambda key=id(inj): fired.__setitem__(key, fired[key] + 1))
        for _ in range(6):
            regions = random_regions(rng)
            factors = (list(rng.uniform(0.5, 8.0, 16)) if thermal
                       else None)
            cap = 8.0 if thermal else 1.0
            got = fast.deposit_latent_flips(
                regions, factors=factors, cap=cap,
                vaults_of=MAPPING.unit_of_batch if mapped else None)
            want = reference_deposit(
                slow, regions, factors=factors, cap=cap,
                vault_of=MAPPING.unit_of if mapped else None)
            assert got == want
            assert state(fast) == state(slow)
        assert fired[id(fast)] == fired[id(slow)]
        assert fast.latent_word_count > 0


def test_zero_size_regions_receive_no_flips():
    inj = FaultInjector(seed=7, latent_flip_rate=0.05)
    regions = [(0, 0), (4096, 64), (8192, 0), (12288, 0), (16384, 64),
               (20480, 0)]
    assert inj.deposit_latent_flips(regions) > 0
    for word, _ in inj.all_latent_words():
        assert 4096 <= word < 4160 or 16384 <= word < 16448


def test_unit_of_batch_matches_the_scalar_unit():
    addrs = np.random.default_rng(3).integers(0, 1 << 40, 4096)
    assert MAPPING.unit_of_batch(addrs).tolist() == [
        MAPPING.unit_of(int(a)) for a in addrs]
    with pytest.raises(ValueError):
        MAPPING.unit_of_batch(np.array([-8]))
