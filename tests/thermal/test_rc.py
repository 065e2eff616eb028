"""RC-integrator battery: physics properties the governor relies on.

The load-bearing properties: with zero power the network cools
*monotonically* to ambient (never below — the heatsink is an infinite
reservoir); under constant power every node settles to a bounded steady
state; halving the integration step does not change the trajectory
beyond tolerance (the integrator is converged, not dt-lucky); and the
Arrhenius factor is clamped to ``[1, cap]``.
"""

import numpy as np
import pytest

from repro.thermal import AMBIENT_K, ThermalConfig, ThermalModel


def make_model(**overrides):
    return ThermalModel(ThermalConfig(**overrides))


# -- config validation --------------------------------------------------------


@pytest.mark.parametrize("bad", [
    dict(c_vault=0.0), dict(c_logic=-1.0), dict(g_sink=0.0),
    dict(g_lat=-0.1), dict(dt=0.0), dict(throttle_factor=0.0),
    dict(throttle_factor=1.5), dict(hysteresis=-1.0),
    dict(critical=340.0, envelope=350.0), dict(arrhenius_cap=0.5),
    dict(leak_doubling=0.0), dict(arrhenius_doubling=0.0),
])
def test_config_rejects_invalid_knobs(bad):
    with pytest.raises(ValueError):
        ThermalConfig(**bad)


def test_per_vault_overrides_win():
    cfg = ThermalConfig(envelope=348.0, critical=368.0,
                        vault_envelopes={3: 330.0},
                        vault_criticals={3: 335.0})
    assert cfg.envelope_of(3) == 330.0
    assert cfg.critical_of(3) == 335.0
    assert cfg.envelope_of(0) == 348.0
    assert cfg.critical_of(0) == 368.0


def test_model_rejects_bad_grid_and_bad_power():
    with pytest.raises(ValueError):
        ThermalModel(ThermalConfig(), vaults=15, cols=4)
    model = make_model()
    with pytest.raises(ValueError):
        model.advance(-1.0)
    with pytest.raises(ValueError):
        model.advance(1e-6, vault_power=[1.0] * 3)
    with pytest.raises(ValueError):
        model.advance(1e-6, vault_power=[-1.0] * 16)
    with pytest.raises(ValueError):
        model.advance(1e-6, logic_power=-1.0)


# -- monotone cool-down -------------------------------------------------------


def heat_up(model, watts=2.0, steps=50, dt=5e-6):
    power = [watts] * model.vaults
    for _ in range(steps):
        model.advance(dt, power, logic_power=watts)


def test_zero_power_cools_monotonically_to_ambient():
    model = make_model(p_leak_ref=0.0)
    heat_up(model)
    assert model.max_temp > AMBIENT_K + 1.0
    prev = model.temps.copy()
    prev_logic = model.t_logic
    for _ in range(200):
        model.advance(5e-6)
        assert np.all(model.temps <= prev + 1e-12)
        assert model.t_logic <= prev_logic + 1e-12
        assert np.all(model.temps >= AMBIENT_K)
        assert model.t_logic >= AMBIENT_K
        prev = model.temps.copy()
        prev_logic = model.t_logic
    # long enough and it is back at ambient to solver precision
    for _ in range(100):
        model.advance(50e-6)
    assert model.max_temp == pytest.approx(AMBIENT_K, abs=1e-6)


def test_leakage_feedback_still_relaxes_to_ambient():
    # with leakage on, the zero-*dynamic*-power fixed point sits just
    # above ambient (leakage self-heating), but cooling from a hot
    # start stays monotone down to it
    model = make_model()
    heat_up(model)
    prev = model.max_temp
    for _ in range(300):
        model.advance(10e-6)
        assert model.max_temp <= prev + 1e-12
        prev = model.max_temp
    assert AMBIENT_K <= model.max_temp < AMBIENT_K + 1.0


# -- bounded steady state -----------------------------------------------------


def test_constant_power_reaches_a_bounded_steady_state():
    model = make_model(p_leak_ref=0.0)
    power = [1.0] * model.vaults
    for _ in range(400):
        model.advance(10e-6, power, logic_power=1.0)
    before = model.temps.copy()
    model.advance(10e-6, power, logic_power=1.0)
    # converged: one more step moves nothing measurable
    assert np.allclose(model.temps, before, atol=1e-9)
    # and the steady state is the analytic bound: every watt must leave
    # through g_sink or g_logic_sink, so no node can sit further above
    # ambient than total power over the weakest serial path
    cfg = model.config
    bound = (model.vaults + 1) * 1.0 / min(cfg.g_sink, cfg.g_logic_sink)
    assert model.max_temp < AMBIENT_K + bound


def test_hotter_input_means_hotter_steady_state():
    cool = make_model()
    hot = make_model()
    for _ in range(300):
        cool.advance(10e-6, [0.5] * 16)
        hot.advance(10e-6, [1.0] * 16)
    assert hot.max_temp > cool.max_temp + 0.1


# -- dt invariance ------------------------------------------------------------


def test_halving_dt_changes_nothing_beyond_tolerance():
    coarse = make_model()
    fine = make_model(dt=ThermalConfig().dt / 2.0)
    power = [1.5] * 16
    for _ in range(60):
        coarse.advance(7e-6, power, logic_power=0.8)
        fine.advance(7e-6, power, logic_power=0.8)
    assert fine.max_temp > AMBIENT_K + 1.0     # the run actually heated
    assert np.allclose(coarse.temps, fine.temps, rtol=1e-3)
    assert coarse.t_logic == pytest.approx(fine.t_logic, rel=1e-3)


def test_split_advance_equals_one_advance():
    # advancing one long interval or the same interval in chunks lands
    # on the same trajectory when the internal substep grid divides
    # both durations exactly; binary-representable values make the
    # ceil() step count exact, so the grids coincide bit-for-bit
    dt = 2.0 ** -22                      # ~0.24us, below the clamp
    chunk = 4 * dt
    one = make_model(dt=dt)
    many = make_model(dt=dt)
    power = [2.0] * 16
    one.advance(8 * chunk, power)
    for _ in range(8):
        many.advance(chunk, power)
    assert np.allclose(one.temps, many.temps, rtol=1e-12)
    assert one.elapsed == pytest.approx(many.elapsed)


def _reference_step(model, temps, t_logic, power, logic_power, dt):
    """One explicit-Euler step in plain expression form, one fresh
    array per operation."""
    cfg = model.config
    amb = cfg.ambient
    lat = cfg.g_lat * (model._adj @ temps - model._degree * temps)
    leak = (cfg.p_leak_ref
            * np.exp2((temps - amb) / cfg.leak_doubling)
            if cfg.p_leak_ref > 0.0 else np.zeros_like(temps))
    flux = (power + leak + cfg.g_sink * (amb - temps)
            + cfg.g_logic * (t_logic - temps) + lat)
    logic_flux = (logic_power
                  + cfg.g_logic * float(np.sum(temps - t_logic))
                  + cfg.g_logic_sink * (amb - t_logic))
    temps = temps + flux * (dt / cfg.c_vault)
    t_logic = t_logic + logic_flux * (dt / cfg.c_logic)
    np.maximum(temps, amb, out=temps)
    return temps, max(t_logic, amb)


def _substep(model, duration):
    """The internal step count and length ``advance`` uses."""
    dt = min(model.config.dt, model._dt_stable)
    steps = max(1, int(np.ceil(duration / dt)))
    return steps, duration / steps


def _reference_advance(model, duration, vault_power, logic_power):
    """The integrator in plain expression form, every step taken: the
    reference the buffered ``advance`` must match."""
    power = np.zeros(model.vaults)
    power[:] = vault_power
    steps, dt = _substep(model, duration)
    temps, t_logic = model.temps, model.t_logic
    for _ in range(steps):
        temps, t_logic = _reference_step(model, temps, t_logic, power,
                                         logic_power, dt)
    return temps, t_logic


@pytest.mark.parametrize("overrides", [{}, dict(p_leak_ref=0.0),
                                       dict(g_lat=0.0, dt=1e-8)])
def test_advance_matches_the_expression_form_bit_for_bit(overrides):
    rng = np.random.default_rng(2015)
    model = make_model(**overrides)
    for i in range(60):
        duration = float(rng.uniform(0.0, 5e-6))
        # heat and cool in turn, so both clamps are exercised
        power = rng.uniform(0.0, 40.0, 16) * (i % 4 != 3)
        logic = float(rng.uniform(0.0, 2.0))
        before = model.temps
        temps, t_logic = _reference_advance(model, duration, power,
                                            logic)
        model.advance(duration, power, logic)
        assert model.temps.tobytes() == temps.tobytes()
        assert model.t_logic == t_logic
        assert model.temps is not before    # callers' arrays untouched
    assert model.peak_vault_temp > AMBIENT_K + 10.0


LONG_RUN_OVERRIDES = [{}, dict(p_leak_ref=0.0), dict(g_lat=0.0)]


@pytest.mark.parametrize("overrides", LONG_RUN_OVERRIDES)
@pytest.mark.parametrize("steps", [600, 1700, 3000])
def test_long_advances_match_the_expression_form(overrides, steps):
    # one advance of hundreds to thousands of internal steps, under
    # constant power and then through an idle cool-down: long enough
    # for the fixed-point probe to run many times
    model = make_model(**overrides)
    nominal = min(model.config.dt, model._dt_stable)
    power = np.linspace(0.2, 3.0, model.vaults)
    for duration, vault_power, logic in (
            ((steps - 0.25) * nominal, power, 0.7),
            ((steps - 0.75) * nominal, (), 0.0)):
        temps, t_logic = _reference_advance(
            model, duration, vault_power if len(vault_power) else 0.0,
            logic)
        model.advance(duration, vault_power, logic)
        assert _substep(model, duration)[0] == steps
        assert model.temps.tobytes() == temps.tobytes()
        assert model.t_logic == t_logic


def _fixed_point(model, power, logic_power, dt, limit=20_000):
    """Iterate the reference step from the model's state until one step
    leaves the state unchanged; return that state."""
    temps, t_logic = model.temps, model.t_logic
    for _ in range(limit):
        nxt, nxt_logic = _reference_step(model, temps, t_logic, power,
                                         logic_power, dt)
        if nxt.tobytes() == temps.tobytes() and nxt_logic == t_logic:
            return temps, t_logic
        temps, t_logic = nxt, nxt_logic
    raise AssertionError("the reference reached no fixed point")


@pytest.mark.parametrize("overrides", LONG_RUN_OVERRIDES)
def test_fixed_point_exit_returns_the_exact_fixed_point(overrides):
    # advance(1.0) is ~5M nominal steps: it finishes in milliseconds
    # only because the exact fixed-point exit fires, and it must land
    # on the reference's fixed point bit for bit
    model = make_model(**overrides)
    power = np.linspace(0.5, 2.0, model.vaults)
    steps, dt = _substep(model, 1.0)
    assert steps > 4_000_000
    temps, t_logic = _fixed_point(model, power, 0.5, dt)
    model.advance(1.0, power, 0.5)
    assert model.temps.tobytes() == temps.tobytes()
    assert model.t_logic == t_logic
    assert model.elapsed == 1.0


def test_peaks_after_an_early_exit():
    model = make_model(p_leak_ref=0.0)
    power = np.linspace(0.5, 2.0, model.vaults)
    model.advance(1.0, power, 0.5)         # heats to a fixed point, exits
    hot, hot_logic = model.temps.copy(), model.t_logic
    assert np.array_equal(model.peak, hot)
    assert model.peak_logic == hot_logic
    cold, cold_logic = _fixed_point(model, np.zeros(model.vaults), 0.0,
                                    _substep(model, 1.0)[1])
    model.advance(1.0)                     # cools to a fixed point, exits
    assert model.temps.tobytes() == cold.tobytes()
    assert model.t_logic == cold_logic
    assert model.max_temp < AMBIENT_K + 1e-9 < float(hot.min())
    assert np.array_equal(model.peak, hot)  # the peaks are remembered
    assert model.peak_logic == hot_logic
    assert model.peak_vault_temp == float(hot.max())
    assert model.elapsed == 2.0


def test_neighbour_sum_keeps_the_matmul_summation_order():
    # adj.dot and adj @ temps are the same dgemv call; on inputs whose
    # sum depends on the order of its terms they must agree bit for bit
    model = make_model()
    rng = np.random.default_rng(5)
    out = np.empty(model.vaults)
    for _ in range(500):
        temps = rng.uniform(1.0, 2.0, model.vaults) * 2.0 ** rng.integers(
            -30, 30, model.vaults)
        model._adj.dot(temps, out=out)
        assert out.tobytes() == (model._adj @ temps).tobytes()


@pytest.mark.parametrize("bad, name", [
    (dict(duration=float("nan")), "duration"),
    (dict(duration=float("inf")), "duration"),
    (dict(vault_power=[float("nan")] + [1.0] * 15), "vault_power"),
    (dict(vault_power=[float("inf")] * 16), "vault_power"),
    (dict(logic_power=float("nan")), "logic_power"),
    (dict(logic_power=float("inf")), "logic_power"),
])
def test_non_finite_inputs_raise_a_typed_error(bad, name):
    model = make_model()
    args = dict(duration=1e-6, vault_power=[1.0] * 16, logic_power=0.5)
    args.update(bad)
    with pytest.raises(ValueError, match=name):
        model.advance(**args)
    # nothing moved
    assert np.all(model.temps == AMBIENT_K)
    assert model.elapsed == 0.0


# -- lateral coupling and peaks ----------------------------------------------


def test_heat_spreads_to_grid_neighbours():
    model = make_model(p_leak_ref=0.0)
    power = [0.0] * 16
    power[5] = 4.0                       # interior vault of the 4x4 grid
    for _ in range(200):
        model.advance(10e-6, power)
    temps = model.temps
    assert temps[5] == model.max_temp
    # its mesh neighbours (1, 4, 6, 9) run warmer than the far corner
    for n in (1, 4, 6, 9):
        assert temps[n] > temps[15] + 1e-3
    assert temps[15] > AMBIENT_K         # but even the far corner warmed


def test_peak_tracking_survives_cooldown():
    model = make_model(p_leak_ref=0.0)
    heat_up(model, watts=3.0)
    peak = model.peak_vault_temp
    assert peak > AMBIENT_K + 1.0
    for _ in range(300):
        model.advance(20e-6)
    assert model.max_temp < peak         # cooled back down...
    assert model.peak_vault_temp == peak  # ...but the peak is remembered
    assert model.peak_temperatures()[0] >= AMBIENT_K


# -- Arrhenius factor ---------------------------------------------------------


def test_arrhenius_factor_is_clamped_and_monotone():
    model = make_model(arrhenius_doubling=10.0, arrhenius_cap=8.0)
    assert model.arrhenius_factor(0) == 1.0          # at ambient
    model.temps[0] = AMBIENT_K + 10.0
    assert model.arrhenius_factor(0) == pytest.approx(2.0)
    model.temps[0] = AMBIENT_K + 20.0
    assert model.arrhenius_factor(0) == pytest.approx(4.0)
    model.temps[0] = AMBIENT_K + 1000.0
    assert model.arrhenius_factor(0) == 8.0          # capped
    assert len(model.arrhenius_factors()) == model.vaults
