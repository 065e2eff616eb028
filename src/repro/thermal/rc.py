"""Per-vault thermal RC network of the accelerated memory stack.

3D-stacked DRAM is thermally limited in practice: the vaults sit between
a heat-spreader on top and the accelerator logic layer below, and the
joules the energy ledger attributes to a step have to go *somewhere*.
This module closes that loop with a lumped RC network:

* one thermal node per vault (the vertical DRAM stack above a tile),
  with heat capacity ``c_vault``;
* one node for the shared logic layer (configuration unit, NoC, and the
  tiles' switch fabric), with capacity ``c_logic``;
* conductances: each vault vertically to the heatsink (``g_sink``),
  laterally to its grid neighbours (``g_lat``, the same 4x4 adjacency
  as the mesh NoC), and vertically to the logic layer (``g_logic``);
  the logic layer drains to the package/board through ``g_logic_sink``.

Heat input is the energy ledger's own per-step attribution: dynamic
joules from accelerator passes, NoC transfers and patrol-scrub walks
are deposited on the vaults (and the logic node) that did the work, and
a temperature-dependent leakage term (``p_leak_ref`` doubling every
``leak_doubling`` kelvin) feeds back — hot vaults leak more, which
makes them hotter.

The network is integrated forward with an explicit-Euler scheme whose
internal step is clamped to the stability bound of the stiffest node,
so callers can hand it arbitrary step durations. All state is plain
float64 numpy — deterministic, so thermal-on golden baselines pin
exactly.

The default capacities are scaled to the simulator's sampled-window
timescale (microsecond-class accelerated steps), giving vault time
constants of tens of microseconds: steady states are reached within a
campaign run instead of after seconds of simulated wall-clock the
sampled traces never cover. The *structure* (vertical stack-to-sink
path dominating, weak lateral spreading, leakage feedback) is what the
governor and the Arrhenius fault coupling consume; see DESIGN.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

import numpy as np

#: Default ambient / case temperature, kelvin (45 C).
AMBIENT_K = 318.0

#: ``advance`` tests for an exact fixed point on every step whose index
#: has these bits clear (one step in 32).
_PROBE_MASK = 31


@dataclass(frozen=True)
class ThermalConfig:
    """Thermal network, envelope-governor and fault-coupling knobs.

    The RC parameters (capacities in J/K, conductances in W/K) define
    the network; the envelope parameters drive the
    :class:`~repro.thermal.governor.PowerGovernor`; the Arrhenius
    parameters couple vault temperature into the latent-flip rate.

    Attributes:
        enabled: master switch — a disabled config wires nothing, so
            the run is bit-identical to one without a thermal model.
        ambient: heatsink/board temperature, K; also the reference
            temperature of the leakage and Arrhenius terms.
        c_vault: heat capacity of one vault's DRAM stack, J/K.
        c_logic: heat capacity of the logic layer, J/K.
        g_sink: vault-to-heatsink vertical conductance, W/K.
        g_lat: vault-to-vault lateral conductance (grid neighbours), W/K.
        g_logic: vault-to-logic-layer vertical conductance, W/K.
        g_logic_sink: logic-layer-to-board conductance, W/K.
        p_leak_ref: per-vault leakage power at ambient, W.
        leak_doubling: kelvin of temperature rise that doubles leakage.
        dt: upper bound on the internal Euler step, seconds (clamped
            further by the stability bound of the stiffest node).
        envelope: vault thermal envelope, K — crossing it throttles.
        hysteresis: kelvin below the envelope a vault must cool before
            its throttle (or offline) state is released.
        critical: emergency threshold, K — crossing it takes the vault
            offline through the per-vault reroute path.
        throttle_factor: DVFS frequency factor of a throttled vault
            (0 < factor <= 1); the pass pipeline stretches by its
            reciprocal.
        vault_envelopes: per-vault envelope overrides (testing forced
            emergencies, heterogeneous corner vaults).
        vault_criticals: per-vault critical overrides.
        arrhenius_doubling: kelvin of vault temperature rise that
            doubles the latent cell-flip rate.
        arrhenius_cap: upper bound on the Arrhenius factor — also the
            thinning envelope that keeps seeded flip candidates
            identical across throttle policies (see
            :meth:`~repro.faults.injector.FaultInjector.deposit_latent_flips`).
    """

    enabled: bool = True
    ambient: float = AMBIENT_K
    c_vault: float = 2e-6
    c_logic: float = 8e-6
    g_sink: float = 0.5
    g_lat: float = 0.1
    g_logic: float = 0.2
    g_logic_sink: float = 2.0
    p_leak_ref: float = 0.05
    leak_doubling: float = 25.0
    dt: float = 2e-7
    envelope: float = 348.0
    hysteresis: float = 3.0
    critical: float = 368.0
    throttle_factor: float = 0.5
    vault_envelopes: Mapping[int, float] = field(default_factory=dict)
    vault_criticals: Mapping[int, float] = field(default_factory=dict)
    arrhenius_doubling: float = 10.0
    arrhenius_cap: float = 8.0

    def __post_init__(self) -> None:
        for name in ("c_vault", "c_logic", "g_sink", "g_logic_sink",
                     "leak_doubling", "dt", "arrhenius_doubling"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0, got "
                                 f"{getattr(self, name)}")
        for name in ("g_lat", "g_logic", "p_leak_ref"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got "
                                 f"{getattr(self, name)}")
        if not 0.0 < self.throttle_factor <= 1.0:
            raise ValueError("throttle_factor must be in (0, 1], got "
                             f"{self.throttle_factor}")
        if self.hysteresis < 0.0:
            raise ValueError("hysteresis must be >= 0")
        if self.critical < self.envelope:
            raise ValueError("critical threshold must not sit below the "
                             "envelope")
        if self.arrhenius_cap < 1.0:
            raise ValueError("arrhenius_cap must be >= 1")

    def envelope_of(self, vault: int) -> float:
        return self.vault_envelopes.get(vault, self.envelope)

    def critical_of(self, vault: int) -> float:
        return self.vault_criticals.get(vault, self.critical)


class ThermalModel:
    """The integrated RC network: per-vault nodes + one logic node."""

    def __init__(self, config: ThermalConfig, vaults: int = 16,
                 cols: int = 4):
        if vaults <= 0 or cols <= 0 or vaults % cols:
            raise ValueError(f"{vaults} vaults do not tile a grid of "
                             f"{cols} columns")
        self.config = config
        self.vaults = vaults
        self.cols = cols
        amb = config.ambient
        self.temps = np.full(vaults, amb, dtype=np.float64)
        self.t_logic = float(amb)
        self.elapsed = 0.0
        #: Per-vault peak temperature seen so far (starts at ambient).
        self.peak: np.ndarray = self.temps.copy()
        self.peak_logic = float(amb)
        # lateral adjacency (grid) as a dense matrix: A @ T sums each
        # node's neighbour temperatures, degree[i] counts them
        adj = np.zeros((vaults, vaults), dtype=np.float64)
        for v in range(vaults):
            r, c = divmod(v, cols)
            rows = vaults // cols
            if c + 1 < cols:
                adj[v, v + 1] = adj[v + 1, v] = 1.0
            if r + 1 < rows:
                adj[v, v + cols] = adj[v + cols, v] = 1.0
        self._adj = adj
        self._degree = adj.sum(axis=1)
        # explicit-Euler stability: dt < C / (sum of conductances at the
        # stiffest node); the 0.4 margin also absorbs the (positive)
        # leakage-feedback slope up to the critical temperature
        g_vault = (config.g_sink + config.g_logic
                   + self._degree.max() * config.g_lat)
        g_log = config.g_logic_sink + vaults * config.g_logic
        self._dt_stable = 0.4 * min(config.c_vault / g_vault,
                                    config.c_logic / max(g_log, 1e-30))
        # the scalar knobs of the vault update as same-shape arrays
        self._operands = tuple(
            np.full(vaults, value, dtype=np.float64)
            for value in (amb, config.g_lat, config.g_sink,
                          config.g_logic, config.leak_doubling,
                          config.p_leak_ref))

    # -- temperature-dependent terms -----------------------------------------

    def leakage(self, temps: np.ndarray) -> np.ndarray:
        """Per-vault leakage power at the given temperatures, W (the
        term :meth:`advance` adds at every step)."""
        cfg = self.config
        if cfg.p_leak_ref <= 0.0:
            return np.zeros_like(temps)
        return cfg.p_leak_ref * np.exp2((temps - cfg.ambient)
                                        / cfg.leak_doubling)

    def arrhenius_factor(self, vault: int) -> float:
        """Latent-flip rate multiplier of one vault: doubles every
        ``arrhenius_doubling`` kelvin above ambient, floored at 1 (the
        model never cools below ambient) and capped at
        ``arrhenius_cap``."""
        cfg = self.config
        factor = 2.0 ** ((float(self.temps[vault]) - cfg.ambient)
                         / cfg.arrhenius_doubling)
        return float(min(max(factor, 1.0), cfg.arrhenius_cap))

    def arrhenius_factors(self) -> List[float]:
        return [self.arrhenius_factor(v) for v in range(self.vaults)]

    # -- integration ----------------------------------------------------------

    def advance(self, duration: float,
                vault_power: Sequence[float] = (),
                logic_power: float = 0.0) -> None:
        """Integrate the network forward by ``duration`` seconds.

        ``vault_power`` is the dynamic heat deposited on each vault
        node, in watts, over the whole interval (the step's attributed
        joules divided by its wall time); ``logic_power`` likewise for
        the logic-layer node. Leakage is added internally from the
        instantaneous temperatures. Every input must be finite: a NaN
        or infinite duration or power raises :class:`ValueError`
        naming it.
        """
        if not math.isfinite(duration):
            raise ValueError(f"duration must be finite, got {duration}")
        if duration < 0.0:
            raise ValueError("duration must be non-negative")
        power = np.zeros(self.vaults, dtype=np.float64)
        if len(vault_power):
            if len(vault_power) != self.vaults:
                raise ValueError(
                    f"expected {self.vaults} vault powers, got "
                    f"{len(vault_power)}")
            power[:] = vault_power
        if not np.all(np.isfinite(power)):
            raise ValueError(f"vault_power must be finite, got {power}")
        if not math.isfinite(logic_power):
            raise ValueError(
                f"logic_power must be finite, got {logic_power}")
        if np.any(power < 0.0) or logic_power < 0.0:
            raise ValueError("power inputs must be non-negative")
        if duration == 0.0:
            return
        cfg = self.config
        dt = min(cfg.dt, self._dt_stable)
        steps = max(1, int(np.ceil(duration / dt)))
        dt = duration / steps
        amb = cfg.ambient
        g_logic, g_logic_sink = cfg.g_logic, cfg.g_logic_sink
        k_logic = dt / cfg.c_logic
        # Every element gets the operations, operands and order of the
        # expression form
        #   flux = power + leakage + g_sink*(amb - T)
        #          + g_logic*(t_logic - T) + g_lat*(A@T - degree*T)
        # (so the trajectory is bit-identical to it); only the call
        # overhead is cut. Scalars enter as same-shape arrays (the
        # cheapest ufunc operand), results land in reused buffers, and
        # adj.dot is the same dgemv call as adj @ temps.
        n = self.vaults
        amb_a, g_lat_a, g_sink_a, g_logic_a, doubling_a, leak_ref_a = \
            self._operands
        k_vault_a = np.full(n, dt / cfg.c_vault)
        leaky = cfg.p_leak_ref > 0.0
        temps = self.temps.copy()
        t_logic = self.t_logic
        lat = np.empty(n)
        term = np.empty(n)
        diff = np.empty(n)
        leak = np.zeros(n)
        flux = np.empty(n)
        add, subtract, multiply = np.add, np.subtract, np.multiply
        divide, exp2, maximum = np.divide, np.exp2, np.maximum
        add_reduce, dot = np.add.reduce, self._adj.dot
        degree = self._degree
        snap, snap_logic = b"", 0.0
        for i in range(steps):
            probe = not i & _PROBE_MASK
            if probe:
                snap, snap_logic = temps.tobytes(), t_logic
            dot(temps, out=lat)
            multiply(degree, temps, out=term)
            subtract(lat, term, out=lat)
            multiply(g_lat_a, lat, out=lat)
            if leaky:
                subtract(temps, amb_a, out=leak)
                divide(leak, doubling_a, out=leak)
                exp2(leak, out=leak)
                multiply(leak_ref_a, leak, out=leak)
            add(power, leak, out=flux)
            subtract(amb_a, temps, out=term)
            multiply(g_sink_a, term, out=term)
            add(flux, term, out=flux)
            # one difference serves both ends of the vault-logic path:
            # sum(T - t_logic) == -sum(t_logic - T) exactly, since IEEE
            # rounding is sign-symmetric, and a + g*(-s) == a - g*s
            subtract(t_logic, temps, out=diff)
            multiply(g_logic_a, diff, out=term)
            add(flux, term, out=flux)
            add(flux, lat, out=flux)
            logic_flux = (logic_power
                          - g_logic * float(add_reduce(diff))
                          + g_logic_sink * (amb - t_logic))
            multiply(flux, k_vault_a, out=flux)
            add(temps, flux, out=temps)
            t_logic = t_logic + logic_flux * k_logic
            # the heatsink is an infinite reservoir at ambient: the
            # stack cannot cool below it
            maximum(temps, amb_a, out=temps)
            if amb > t_logic:
                t_logic = amb
            # exact fixed point: a step that maps the state onto itself
            # bit for bit maps it onto itself forever after
            if (probe and t_logic == snap_logic
                    and temps.tobytes() == snap):
                break
        self.temps = temps
        self.t_logic = t_logic
        self.elapsed += duration
        np.maximum(self.peak, temps, out=self.peak)
        self.peak_logic = max(self.peak_logic, t_logic)

    # -- views ----------------------------------------------------------------

    def temperature(self, vault: int) -> float:
        return float(self.temps[vault])

    def peak_temperatures(self) -> Dict[int, float]:
        """Per-vault peak temperature since construction, K."""
        return {v: float(self.peak[v]) for v in range(self.vaults)}

    @property
    def peak_vault_temp(self) -> float:
        """Hottest vault temperature ever reached, K."""
        return float(self.peak.max())

    @property
    def max_temp(self) -> float:
        """Hottest current vault temperature, K."""
        return float(self.temps.max())
