"""Plants, excitation, open/closed-loop simulation, and metrics."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from elcontrol.arrays import Tangent
from elcontrol.control import (CONTROLLERS, BarrierSpec, ControllerState,
                               DesignCache, icbf_step, lqr_control)
from elcontrol.errors import ElcontrolError, InfeasibleError, ValidationError
from elcontrol.model import (ELModel, ModelArch, ModelDims, TrainConfig,
                             train)
from elcontrol.simulate import (MismatchPlant, Plant, SimulationTrace,
                                TeacherPlant, gen_excitation, metrics_r2,
                                simulate_closed_loop, simulate_open_loop,
                                step_schedule, write_trace_csv)


def scalar_core_model(a, b, c=0.0):
    """dims-(1,1,1,1) model with identity maps and scalar core (a, b, c)."""
    m = ELModel(ModelDims(1, 1, 1, 1))
    m.a_net.init_zero(m.params, last_bias=np.array([float(a)]))
    m.b_net.init_zero(m.params, last_bias=np.array([float(b)]))
    m.c_net.init_zero(m.params, last_bias=np.array([float(c)]))
    return m


class DecayPlant(Plant):
    """dy/dt = -y, z = y^2; closed-form solution for integrator oracles."""

    def __init__(self):
        self.dims = ModelDims(1, 1, 1, 1)
        self.operating_box = (-2.0 * np.ones(1), 2.0 * np.ones(1))

    def derivative(self, y, v, d, d_dot=None):
        return -np.asarray(y, dtype=np.float64)

    def outputs(self, y, v, d):
        return np.atleast_1d(np.asarray(y, dtype=np.float64)[0] ** 2)


class DriftPlant(Plant):
    """dy/dt = -y + v with a generous box; exposes the zero-order hold."""

    def __init__(self):
        self.dims = ModelDims(1, 1, 1, 1)
        self.operating_box = (-5.0 * np.ones(1), 5.0 * np.ones(1))

    def derivative(self, y, v, d, d_dot=None):
        return -np.asarray(y, dtype=np.float64) + np.asarray(v, dtype=np.float64)

    def outputs(self, y, v, d):
        return np.atleast_1d(np.asarray(y, dtype=np.float64)[0])


ZERO1 = lambda t: np.zeros(1)


# ---------------------------------------------------------------------------
# excitation


def test_zero_amplitude_sum_of_sines_is_constant_midpoint():
    sig = gen_excitation("sum-of-sines", 2.0, 1e-2, (2.0, 2.0), seed=0)
    for t in np.linspace(0.0, 2.0, 37):
        assert np.array_equal(sig(t), np.array([2.0]))
        assert np.array_equal(sig.derivative(t), np.zeros(1))


def test_prbs_takes_only_box_endpoints():
    sig = gen_excitation("prbs", 3.0, 0.1, (np.array([-1.0, 2.0]),
                                            np.array([1.0, 5.0])), seed=7)
    samples = np.array([sig(t) for t in np.arange(0.0, 3.0, 0.05)])
    assert set(np.unique(samples[:, 0])) == {-1.0, 1.0}
    assert set(np.unique(samples[:, 1])) == {2.0, 5.0}
    # constant within a chip, slope identically zero
    assert np.array_equal(sig(0.51), sig(0.59))
    assert np.array_equal(sig.derivative(1.23), np.zeros(2))


def test_chirp_spectrum_peaks_inside_declared_band():
    sig = gen_excitation("chirp", 10.0, 1e-2, (-1.0, 1.0), seed=2)
    assert sig.band == (0.1, 5.0)
    dt = 5e-3
    ts = np.arange(0.0, 10.0, dt)
    x = np.array([sig(t)[0] for t in ts])
    spectrum = np.abs(np.fft.rfft(x - x.mean()))
    freqs = np.fft.rfftfreq(ts.size, dt)
    peak = freqs[np.argmax(spectrum)]
    assert 0.05 <= peak <= 5.5
    assert np.all(np.abs(x) <= 1.0)


@pytest.mark.parametrize("kind", ["chirp", "prbs", "sum-of-sines"])
def test_signals_stay_in_box_and_are_seeded(kind):
    box = (np.array([-0.5, 1.0]), np.array([0.5, 3.0]))
    a = gen_excitation(kind, 4.0, 0.05, box, seed=9)
    b = gen_excitation(kind, 4.0, 0.05, box, seed=9)
    c = gen_excitation(kind, 4.0, 0.05, box, seed=10)
    ts = np.linspace(0.0, 4.0, 211)
    va = np.array([a(t) for t in ts])
    assert np.all(va >= box[0] - 1e-12) and np.all(va <= box[1] + 1e-12)
    assert np.array_equal(va, np.array([b(t) for t in ts]))
    assert not np.array_equal(va, np.array([c(t) for t in ts]))


@pytest.mark.parametrize("kind", ["chirp", "sum-of-sines"])
def test_smooth_signal_slopes_match_finite_differences(kind):
    sig = gen_excitation(kind, 5.0, 2e-2, (np.array([-1.0]), np.array([2.0])), seed=4)
    eps = 1e-6
    for t in (0.3, 1.7, 4.2):
        fd = (sig(t + eps) - sig(t - eps)) / (2.0 * eps)
        assert np.abs(fd - sig.derivative(t)).max() < 1e-7


def test_gen_excitation_validation():
    with pytest.raises(ValidationError):
        gen_excitation("triangle", 1.0, 0.1, (0.0, 1.0))
    with pytest.raises(ValidationError):
        gen_excitation("prbs", 0.0, 0.1, (0.0, 1.0))
    with pytest.raises(ValidationError):
        gen_excitation("prbs", 1.0, -0.1, (0.0, 1.0))
    with pytest.raises(ValidationError):
        gen_excitation("prbs", 1.0, 0.1, (1.0, 0.0))
    with pytest.raises(ValidationError):
        gen_excitation("chirp", 1.0, 0.5, (0.0, 1.0))  # band would be empty


def test_step_schedule_holds_values_between_switch_times():
    sched = step_schedule([0.0, 1.0, 2.5], [[0.0], [5.0], [-1.0]])
    assert sched(0.0)[0] == 0.0
    assert sched(0.999)[0] == 0.0
    assert sched(1.0)[0] == 5.0
    assert sched(2.49)[0] == 5.0
    assert sched(2.5)[0] == -1.0
    assert sched(100.0)[0] == -1.0
    with pytest.raises(ValidationError):
        step_schedule([0.5, 1.0], [[0.0], [1.0]])
    with pytest.raises(ValidationError):
        step_schedule([0.0, 0.0], [[0.0], [1.0]])
    with pytest.raises(ValidationError):
        step_schedule([0.0, 1.0], [[0.0]])


# ---------------------------------------------------------------------------
# open loop


def test_zero_derivative_plant_stays_constant():
    class Still(Plant):
        def __init__(self):
            self.dims = ModelDims(1, 1, 1, 1)
            self.operating_box = (-np.ones(1), np.ones(1))

        def derivative(self, y, v, d, d_dot=None):
            return np.zeros(1)

        def outputs(self, y, v, d):
            return np.array([3.0])

    ds = simulate_open_loop(Still(), ZERO1, ZERO1, np.array([0.25]),
                            step=0.1, steps=10)
    assert np.all(ds.y == 0.25)
    assert np.all(ds.y_dot == 0.0)
    assert np.all(ds.z == 3.0)
    assert np.array_equal(ds.t, np.arange(11) * 0.1)


def test_exponential_decay_endpoint_oracle():
    ds = simulate_open_loop(DecayPlant(), ZERO1, ZERO1, np.array([1.0]),
                            step=1e-3, steps=1000)
    assert abs(ds.y[-1, 0] - np.exp(-1.0)) < 1e-9


def test_rk4_order_via_step_halving():
    # constant input so the ODE is step-independent; only integrator error
    plant = MismatchPlant()
    v = lambda t: np.array([0.8, -0.5])
    d = gen_excitation("sum-of-sines", 1.0, 1e-2, (np.array([-0.5]),
                                                   np.array([0.5])), seed=6)
    y0 = np.array([0.3, -0.2])

    def endpoint(h):
        return simulate_open_loop(plant, v, d, y0, step=h,
                                  steps=int(round(1.0 / h))).y[-1]

    coarse = np.linalg.norm(endpoint(2e-2) - endpoint(1e-2))
    fine = np.linalg.norm(endpoint(1e-2) - endpoint(5e-3))
    assert coarse > 1e-11  # above roundoff so the ratio is meaningful
    assert np.log2(coarse / fine) > 3.8


def test_open_loop_single_step_matches_manual_rk4_with_held_input():
    # v(t) = t sampled at t=0 stays 0 for the whole step: pure decay
    ds = simulate_open_loop(DriftPlant(), lambda t: np.array([t]), ZERO1,
                            np.array([1.0]), step=0.1, steps=1)
    h = 0.1
    expected = 1.0 - h + h ** 2 / 2.0 - h ** 3 / 6.0 + h ** 4 / 24.0
    assert abs(ds.y[1, 0] - expected) < 1e-15
    assert ds.y_dot[0, 0] == -1.0
    assert abs(ds.y_dot[1, 0] - (-ds.y[1, 0] + 0.1)) < 1e-15
    assert np.array_equal(ds.v[:, 0], np.array([0.0, 0.1]))


def test_open_loop_evaluates_each_row_derivative_once():
    # the logged derivative of row k is the first RK4 stage of step k
    class Counted(DriftPlant):
        calls = 0

        def derivative(self, y, v, d, d_dot=None):
            Counted.calls += 1
            return super().derivative(y, v, d, d_dot)

    steps = 20
    ds = simulate_open_loop(Counted(), lambda t: np.array([np.sin(t)]), ZERO1,
                            np.array([0.5]), step=0.05, steps=steps)
    assert len(ds) == steps + 1 and Counted.calls == 4 * steps + 1


def test_open_loop_builds_phi_once_per_rk4_time():
    # k2 and k3 share the time t + h/2, k4 and the next row's derivative
    # t + h; a step of 2^-8 keeps those times equal in floating point, so a
    # sum-of-sines d (d_dot != 0) repeats in pairs and Phi's tangent entry
    # serves the second call of each pair; z reuses the row derivative's x
    m = ELModel.random(ModelDims(3, 3, 2, 2), ModelArch(phi_depth=1, phi_hidden=8, psi_depth=1,
                                                        psi_hidden=8, core_hidden=8), seed=2)
    builds = {"tangent": 0, "array": 0}
    layers = m.state_map._layers

    def counted(params, cond):
        builds["tangent" if isinstance(cond, Tangent) else "array"] += 1
        return layers(params, cond)

    m.state_map._layers = counted
    box = (-0.5 * np.ones(2), 0.5 * np.ones(2))
    steps = 50
    simulate_open_loop(TeacherPlant(m), lambda t: np.array([0.3, np.sin(t), -0.2]),
                       gen_excitation("sum-of-sines", 1.0, 0.01, box, seed=3),
                       np.zeros(3), step=2.0 ** -8, steps=steps)
    assert builds == {"tangent": 2 * steps + 1, "array": 0}


def test_open_loop_uses_signal_duration_and_validates_arguments():
    sig = gen_excitation("sum-of-sines", 1.0, 0.25, (-0.1, 0.1), seed=1)
    ds = simulate_open_loop(DecayPlant(), sig, ZERO1, np.zeros(1), step=0.25)
    assert len(ds) == 5
    with pytest.raises(ValidationError):
        simulate_open_loop(DecayPlant(), ZERO1, ZERO1, np.zeros(1), step=0.1)
    with pytest.raises(ValidationError):
        simulate_open_loop(DecayPlant(), sig, ZERO1, np.zeros(1), step=-0.1)


def test_open_loop_divergence_is_reported():
    class Unstable(Plant):
        def __init__(self):
            self.dims = ModelDims(1, 1, 1, 1)
            self.operating_box = (-np.ones(1), np.ones(1))

        def derivative(self, y, v, d, d_dot=None):
            return np.asarray(y, dtype=np.float64).copy()

        def outputs(self, y, v, d):
            return np.zeros(1)

    with pytest.raises(ValidationError, match="diverged"):
        simulate_open_loop(Unstable(), ZERO1, ZERO1, np.array([0.5]),
                           step=0.05, steps=200)


def test_teacher_plant_defaults_and_derivative():
    plant = TeacherPlant(seed=3)
    assert plant.dims == ModelDims(3, 3, 2, 2)
    y, v, d = np.array([0.2, -0.4, 0.1]), np.zeros(3), np.zeros(2)
    ydot = plant.derivative(y, v, d)
    assert ydot.shape == (3,) and np.all(np.isfinite(ydot))
    assert np.array_equal(ydot, plant.derivative(y, v, d, np.zeros(2)))
    assert plant.outputs(y, v, d).shape == (2,)


@pytest.mark.parametrize("plant", [TeacherPlant(seed=5), MismatchPlant()],
                         ids=["teacher", "mismatch"])
def test_derivative_and_outputs_equals_the_two_calls(plant):
    rng = np.random.default_rng(8)
    dims = plant.dims
    for d_dot in (None, np.zeros(dims.nd), 0.4 * rng.normal(size=dims.nd)):
        y, v, d = (0.5 * rng.normal(size=k) for k in (dims.ny, dims.nu, dims.nd))
        want = plant.derivative(y, v, d, d_dot), plant.outputs(y, v, d)
        got = plant.derivative_and_outputs(y, v, d, d_dot)
        assert len(got) == 2
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# closed loop


def test_lqr_tracking_converges_to_target():
    m = scalar_core_model(-1.0, 1.0)
    plant = TeacherPlant(model=m, operating_box=(-10 * np.ones(1), 10 * np.ones(1)))
    trace = simulate_closed_loop(plant, m, "lqr", np.array([2.0]), np.zeros(1),
                                 horizon=3.0, control_period=5e-3,
                                 Q=np.array([[25.0]]), substeps=2)
    assert len(trace) == 600
    assert abs(trace.y[-1, 0] - 2.0) < 1e-4
    # error shrinks monotonically on this first-order loop
    err = np.abs(trace.y[:, 0] - 2.0)
    assert np.all(np.diff(err) < 1e-12)
    # latent column is the model's own lift of the logged output
    for k in (0, 100, 599):
        assert np.allclose(trace.x[k], m.x_from_y(trace.y[k], trace.d[k]),
                           atol=1e-12)


def test_zero_horizon_returns_empty_trace_with_metadata():
    m = scalar_core_model(-1.0, 1.0)
    plant = TeacherPlant(model=m)
    trace = simulate_closed_loop(plant, m, "lqr", np.zeros(1), np.zeros(1),
                                 horizon=0.0)
    assert len(trace) == 0
    assert trace.y.shape == (0, 1) and trace.u.shape == (0, 1)
    assert trace.metadata["controller"] == "lqr"


def test_filtered_and_unfiltered_runs_differ_on_constraints():
    m = scalar_core_model(-4.0, 1.0)
    plant = TeacherPlant(model=m, operating_box=(-10 * np.ones(1), 10 * np.ones(1)))
    spec = BarrierSpec(z_max=[1e6], v_min=[-3.0], v_max=[1.0],
                       k1=10.0, k2=1.0, rate_weight=0.05)
    common = dict(y_d=np.array([2.0]), d=np.zeros(1), horizon=2.5,
                  control_period=2e-3, spec=spec, substeps=2)
    filtered = simulate_closed_loop(plant, m, "icbf", **common)
    unfiltered = simulate_closed_loop(plant, m, "lqr", **common)
    assert filtered.h.shape == (1250, spec.n_rows)
    assert filtered.h.max() <= 1e-6
    assert unfiltered.h.max() > 0.0
    # the filter settles on the constrained equilibrium y = v_max * b / |a|
    assert abs(filtered.y[-1, 0] - 0.25) < 1e-3
    assert abs(unfiltered.y[-1, 0] - 2.0) < 1e-2
    # the rate multiplier is active while the bound is being approached
    assert np.abs(filtered.lam).max() > 1e-3
    assert np.abs(filtered.lam[-1]).max() < 1e-6
    assert filtered.h[0].max() <= 0.0  # starts feasible (midpoint input state)


def test_sontag_controller_drains_the_quadratic_energy():
    m = scalar_core_model(1.0, 1.0)  # open-loop unstable
    plant = TeacherPlant(model=m, operating_box=(-10 * np.ones(1), 10 * np.ones(1)))
    trace = simulate_closed_loop(plant, m, "sontag", np.zeros(1), np.zeros(1),
                                 horizon=2.5, control_period=5e-3,
                                 y0=np.array([1.0]), substeps=2)
    p = 1.0 + np.sqrt(2.0)  # scalar Riccati solution for a=b=q=r=1
    energy = p * trace.x[:, 0] ** 2
    assert energy[-1] < 1e-6 * energy[0]
    assert np.all(np.diff(energy) < 1e-12)


def test_step_schedule_target_is_followed():
    m = scalar_core_model(-1.0, 1.0)
    plant = TeacherPlant(model=m, operating_box=(-10 * np.ones(1), 10 * np.ones(1)))
    y_d = step_schedule([0.0, 1.5], [[1.0], [-0.5]])
    trace = simulate_closed_loop(plant, m, "lqr", y_d, np.zeros(1),
                                 horizon=3.0, control_period=5e-3,
                                 Q=np.array([[25.0]]), substeps=2)
    mid = trace.y[int(round(1.4 / 5e-3)), 0]
    assert abs(mid - 1.0) < 1e-3
    assert abs(trace.y[-1, 0] + 0.5) < 1e-3


def test_closed_loop_is_deterministic():
    m = scalar_core_model(-4.0, 1.0)
    plant = TeacherPlant(model=m, operating_box=(-10 * np.ones(1), 10 * np.ones(1)))
    spec = BarrierSpec(z_max=[1e6], v_min=[-100.0], v_max=[1.0],
                       k1=10.0, k2=1.0, rate_weight=0.05)
    kwargs = dict(y_d=np.array([1.5]), d=np.zeros(1), horizon=0.3,
                  control_period=2e-3, spec=spec, substeps=2)
    a = simulate_closed_loop(plant, m, "icbf", **kwargs)
    b = simulate_closed_loop(plant, m, "icbf", **kwargs)
    for name in ("t", "y", "x", "u", "v", "z", "h", "lam", "d"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_measurement_noise_is_seeded_and_off_by_default():
    m = scalar_core_model(-1.0, 1.0)
    plant = TeacherPlant(model=m, operating_box=(-10 * np.ones(1), 10 * np.ones(1)))
    kwargs = dict(y_d=np.array([1.0]), d=np.zeros(1), horizon=0.2,
                  control_period=1e-2, substeps=2)
    a = simulate_closed_loop(plant, m, "lqr", noise_std=0.01, seed=5, **kwargs)
    b = simulate_closed_loop(plant, m, "lqr", noise_std=0.01, seed=5, **kwargs)
    c = simulate_closed_loop(plant, m, "lqr", noise_std=0.01, seed=6, **kwargs)
    clean = simulate_closed_loop(plant, m, "lqr", **kwargs)
    assert np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)
    assert not np.array_equal(a.y, clean.y)


def test_infeasible_filter_attaches_partial_trace():
    m = scalar_core_model(-1.0, 1.0)
    plant = TeacherPlant(model=m, operating_box=(-10 * np.ones(1), 10 * np.ones(1)))
    # constant constrained output sits above a negative ceiling: no input helps
    spec = BarrierSpec(z_max=[-100.0], v_min=[-100.0], v_max=[100.0],
                       k1=1.0, k2=1.0)
    with pytest.raises(InfeasibleError) as info:
        simulate_closed_loop(plant, m, "icbf", np.zeros(1), np.zeros(1),
                             horizon=0.5, control_period=1e-2, spec=spec,
                             substeps=2)
    assert len(info.value.trace) == 0
    assert info.value.trace.metadata["controller"] == "icbf"


def test_infeasible_mid_run_keeps_the_rows_already_written(qp_infeasible_from_third_call):
    m = scalar_core_model(-4.0, 1.0)
    plant = TeacherPlant(model=m, operating_box=(-10 * np.ones(1), 10 * np.ones(1)))
    spec = BarrierSpec(z_max=[1e6], v_min=[-100.0], v_max=[1.0],
                       k1=10.0, k2=1.0, rate_weight=0.05)
    with pytest.raises(InfeasibleError) as info:
        simulate_closed_loop(plant, m, "icbf", np.array([1.5]), np.zeros(1),
                             horizon=0.02, control_period=2e-3, spec=spec, substeps=2)
    cert = info.value.certificate
    assert cert["barrier_values"].shape == (spec.n_rows,)
    assert np.all(np.isfinite(cert["barrier_values"]))
    assert cert["violation_bound"] == 1.0
    assert len(info.value.trace) == 2
    assert len(qp_infeasible_from_third_call) == 3


def test_closed_loop_divergence_attaches_partial_trace():
    model = scalar_core_model(1.0, 1.0)
    # true input gain has the opposite sign: positive feedback loop
    plant = TeacherPlant(model=scalar_core_model(1.0, -1.0))
    with pytest.raises(ValidationError, match="diverged") as info:
        simulate_closed_loop(plant, model, "lqr", np.zeros(1), np.zeros(1),
                             horizon=3.0, control_period=5e-3,
                             y0=np.array([0.5]), substeps=2)
    trace = info.value.trace
    assert len(trace) > 10
    assert np.all(np.isfinite(trace.y))


def test_closed_loop_input_validation():
    m = scalar_core_model(-1.0, 1.0)
    plant = TeacherPlant(model=m)
    other = TeacherPlant(seed=0)  # (3,3,2,2) dims
    with pytest.raises(ValidationError):
        simulate_closed_loop(plant, m, "pid", np.zeros(1), np.zeros(1), 1.0)
    with pytest.raises(ValidationError):
        simulate_closed_loop(other, m, "lqr", np.zeros(1), np.zeros(1), 1.0)
    with pytest.raises(ValidationError):
        simulate_closed_loop(plant, m, "lqr", np.zeros(1), np.zeros(1), -1.0)
    with pytest.raises(ValidationError):
        simulate_closed_loop(plant, m, "lqr", np.zeros(1), np.zeros(1), 1.0,
                             control_period=0.0)
    with pytest.raises(ValidationError):
        simulate_closed_loop(plant, m, "icbf", np.zeros(1), np.zeros(1), 1.0)
    for noise_std in (-1.0, float("nan")):
        with pytest.raises(ValidationError, match="noise_std"):
            simulate_closed_loop(plant, m, "lqr", np.zeros(1), np.zeros(1), 0.01,
                                 noise_std=noise_std)


def replay_spec(dims):
    return BarrierSpec(z_max=[5.0] * dims.nz, v_min=[-2.0] * dims.nu, v_max=[2.0] * dims.nu,
                       k1=10.0, k2=1.0, rate_weight=0.05)


# (dims, arch): the 3x3 shape is the benchmark's, whose stacks have output
# widths 9/3/3 (phi), 9/9/3 (core) and 3/3/3 (psi), so some are zero padded
REPLAY_MODELS = {
    "2x2": (ModelDims(2, 2, 1, 1), ModelArch()),
    "3x3": (ModelDims(3, 3, 2, 2), ModelArch()),
    "3x3 depth 1": (ModelDims(3, 3, 2, 2), ModelArch(phi_depth=1, psi_depth=1)),
    "3x3 depth 3": (ModelDims(3, 3, 2, 2), ModelArch(phi_depth=3, psi_depth=3)),
}


@pytest.mark.parametrize("controller, shape", [
    pytest.param(c, s, id=c if s == "2x2" else f"{c}-{s}")
    for s in REPLAY_MODELS for c in ("lqr", "icbf", "sontag")])
def test_trace_matches_the_public_tick_functions(controller, shape):
    # every logged tick is reproduced bit for bit from the trace's own y and d
    # through the public per-tick API, across a target switch, a disturbance
    # step and measurement noise
    dims, arch = REPLAY_MODELS[shape]
    m = ELModel.random(dims, arch, seed=3)
    spec = replay_spec(dims)
    plant = TeacherPlant(model=m)
    y_d = step_schedule([0.0, 0.01], [[0.2, -0.1, 0.1][:dims.ny], [0.4, 0.1, -0.1][:dims.ny]])
    d = step_schedule([0.0, 0.015], [[0.0] * dims.nd, [0.2, -0.1][:dims.nd]])
    Q, dt = 4.0 * np.eye(dims.ny), 1e-3
    trace = simulate_closed_loop(plant, m, controller, y_d, d, horizon=0.03,
                                 control_period=dt, Q=Q, spec=spec, substeps=1,
                                 noise_std=0.01, seed=4)
    assert len(trace) == 30
    caches = {}
    for k in range(len(trace)):
        y, d_bar = trace.y[k], trace.d[k]
        target = np.asarray(y_d(k * dt))
        key = target.tobytes()
        if key not in caches:
            caches[key] = DesignCache(m, target, Q, np.eye(dims.nu))
        x = m.x_from_y(y, d_bar)
        design = caches[key].design_for(d_bar)
        if controller == "icbf":
            u_prev = (trace.u[k - 1] if k else
                      m.u_from_v(0.5 * (spec.v_min + spec.v_max), y, d_bar))
            lam, state, v = icbf_step(m, ControllerState(u=u_prev), x, d_bar, design, spec, dt)
            u = state.u
            # the published input is Psi at y_from_x(x), not at the measured y
            assert np.array_equal(v, m.v_from_u(u, m.y_from_x(x, d_bar), d_bar))
        elif controller == "lqr":
            lam, u = np.zeros(dims.nu), lqr_control(design, x)
            v = m.v_from_u(u, y, d_bar)
        else:
            lam, _, u, v = CONTROLLERS["sontag"](m, None, x, y, d_bar, design, spec, dt)
        for name, value in (("x", x), ("lam", lam), ("u", u), ("v", v)):
            assert np.array_equal(value, getattr(trace, name)[k]), (name, k)


class FailingPlant(TeacherPlant):
    """A teacher plant whose derivative raises on its `fail_at`-th call."""

    def __init__(self, model, fail_at):
        super().__init__(model=model, operating_box=(-10 * np.ones(1), 10 * np.ones(1)))
        self.fail_at = fail_at
        self.calls = 0

    def derivative(self, y, v, d, d_dot=None):
        self.calls += 1
        if self.calls == self.fail_at:
            raise ElcontrolError("injected plant failure")
        return super().derivative(y, v, d, d_dot)


def test_integration_step_count_is_capped_before_the_loop():
    # without the cap, 10^9 substeps per tick integrate without end; the
    # plant's fifth call fails instead, so the test ends either way
    m = scalar_core_model(-1.0, 1.0)
    with pytest.raises(ValidationError, match="integration step count"):
        simulate_closed_loop(FailingPlant(m, fail_at=5), m, "lqr", np.zeros(1), np.zeros(1),
                             horizon=0.02, control_period=2e-3, substeps=10**9)


@pytest.mark.parametrize("controller", ["lqr", "icbf", "sontag"])
def test_plant_failure_keeps_the_rows_already_written(controller):
    m = scalar_core_model(-4.0, 1.0)
    spec = BarrierSpec(z_max=[1e6], v_min=[-100.0], v_max=[1.0],
                       k1=10.0, k2=1.0, rate_weight=0.05)
    kwargs = dict(y_d=np.array([1.5]), d=np.zeros(1), horizon=0.02,
                  control_period=2e-3, spec=spec, substeps=2)
    full = simulate_closed_loop(FailingPlant(m, fail_at=0), m, controller, **kwargs)
    # 4 RK4 stages x 2 substeps per tick: call 29 is in tick 3's integration
    with pytest.raises(ElcontrolError, match="injected") as info:
        simulate_closed_loop(FailingPlant(m, fail_at=29), m, controller, **kwargs)
    partial = info.value.trace
    assert len(partial) == 4
    assert partial.metadata == full.metadata
    for name in ("t", "y", "x", "u", "v", "z", "h", "lam", "d"):
        assert np.array_equal(getattr(partial, name), getattr(full, name)[:4]), name


# ---------------------------------------------------------------------------
# trace output


def test_trace_csv_roundtrip_and_header():
    m = scalar_core_model(-4.0, 1.0)
    plant = TeacherPlant(model=m, operating_box=(-10 * np.ones(1), 10 * np.ones(1)))
    spec = BarrierSpec(z_max=[1e6], v_min=[-100.0], v_max=[1.0],
                       k1=10.0, k2=1.0, rate_weight=0.05)
    trace = simulate_closed_loop(plant, m, "icbf", np.array([1.0]), np.zeros(1),
                                 horizon=0.05, control_period=5e-3, spec=spec,
                                 substeps=2)
    path = "/tmp/elcontrol_trace_test.csv"
    write_trace_csv(trace, path)
    with open(path) as f:
        header = f.readline().strip()
    assert header == "t,y1,x1,u1,v1,z1,h1,h2,h3,lam1,d1"
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert table.shape == (10, 11)
    assert np.array_equal(table[:, 0], trace.t)
    assert np.array_equal(table[:, 6:9], trace.h)


def test_empty_trace_csv_has_header_only():
    trace = SimulationTrace(t=np.zeros(0), y=np.zeros((0, 1)), x=np.zeros((0, 1)),
                            u=np.zeros((0, 1)), v=np.zeros((0, 1)),
                            z=np.zeros((0, 1)), h=np.zeros((0, 0)),
                            lam=np.zeros((0, 1)), d=np.zeros((0, 1)))
    path = "/tmp/elcontrol_trace_empty.csv"
    write_trace_csv(trace, path)
    with open(path) as f:
        lines = f.readlines()
    assert len(lines) == 1


def test_trace_rejects_nonfinite_and_nonuniform_grids():
    ok = dict(y=np.zeros((2, 1)), x=np.zeros((2, 1)), u=np.zeros((2, 1)),
              v=np.zeros((2, 1)), z=np.zeros((2, 1)), h=np.zeros((2, 0)),
              lam=np.zeros((2, 1)), d=np.zeros((2, 1)))
    with pytest.raises(ValidationError):
        SimulationTrace(t=np.array([0.0, 1.0]),
                        **{**ok, "y": np.array([[0.0], [np.nan]])})
    with pytest.raises(ValidationError):
        SimulationTrace(t=np.array([0.0, 1.0, 3.0]),
                        **{k: np.zeros((3, v.shape[1])) for k, v in ok.items()})


# ---------------------------------------------------------------------------
# metrics


def test_r2_hand_values():
    assert metrics_r2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
    actual = np.array([1.0, 2.0, 3.0])
    assert metrics_r2(np.full(3, actual.mean()), actual) == 0.0
    assert metrics_r2([1.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == 0.5


def test_r2_validation():
    with pytest.raises(ValidationError):
        metrics_r2([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        metrics_r2([1.0], [1.0])
    with pytest.raises(ValidationError):
        metrics_r2([1.0, 2.0], [4.0, 4.0])


# ---------------------------------------------------------------------------
# identification pipeline


def test_teacher_data_trains_to_high_fidelity():
    """A student of the teacher's own architecture nails a held-out run."""
    dims = ModelDims(2, 2, 1, 1)
    arch = ModelArch(phi_depth=1, phi_hidden=8, psi_depth=1, psi_hidden=8,
                     xi_depth=2, xi_hidden=8, core_hidden=8)
    teacher = ELModel.random(dims, arch, seed=0, map_scale=0.2, core_scale=0.3)
    plant = TeacherPlant(model=teacher)
    box_v = (np.array([-1.5, -1.5]), np.array([1.5, 1.5]))
    box_d = (np.array([-0.5]), np.array([0.5]))

    def run(seed_v, seed_d, duration):
        v = gen_excitation("sum-of-sines", duration, 4e-2, box_v, seed=seed_v)
        d = gen_excitation("sum-of-sines", duration, 8e-2, box_d, seed=seed_d)
        return simulate_open_loop(plant, v, d, np.zeros(2), step=5e-3)

    ds = run(11, 12, 20.0)
    held_out = run(21, 22, 4.0)  # same excitation family, fresh seeds
    student = ELModel.for_training(dims, ds, arch, seed=4, map_scale=0.02)
    student, _ = train(student, ds, TrainConfig(epochs=320, batch_size=512,
                                                step_size=0.02, decay=0.996,
                                                seed=1))
    pred = student.predict_ydot(held_out.v, held_out.y, held_out.d, held_out.d_dot)
    for j in range(dims.ny):
        assert metrics_r2(pred[:, j], held_out.y_dot[:, j]) >= 0.99
    pred_z = student.predict_z(held_out.v, held_out.y, held_out.d)
    assert metrics_r2(pred_z[:, 0], held_out.z[:, 0]) >= 0.95


def _run_or_failure(plant, m, controller, **kwargs):
    """The trace of a run, or the failure's type, message and partial trace."""
    try:
        return None, simulate_closed_loop(plant, m, controller, **kwargs)
    except ElcontrolError as exc:
        return (type(exc), str(exc)), exc.trace


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 3), st.integers(0, 2 ** 16 - 1))
def test_reruns_are_bit_identical(ny, nu, nd, nz, depth, s):
    # every controller, through a disturbance step and seeded measurement
    # noise; a run that fails must fail the same way with the same rows
    dims = ModelDims(ny, nu, nd, nz)
    m = ELModel.random(dims, ModelArch(phi_depth=depth, phi_hidden=8, psi_depth=depth,
                                       psi_hidden=8, xi_depth=depth, xi_hidden=8,
                                       core_hidden=8), seed=s)
    kwargs = dict(y_d=np.full(ny, 0.2), d=step_schedule([0.0, 0.002], [[0.0] * nd, [0.1] * nd]),
                  horizon=0.004, control_period=1e-3, spec=replay_spec(dims), substeps=1,
                  noise_std=0.01, seed=s)
    for controller in CONTROLLERS:
        failure, first = _run_or_failure(TeacherPlant(model=m), m, controller, **kwargs)
        again_failure, again = _run_or_failure(TeacherPlant(model=m), m, controller, **kwargs)
        assert failure == again_failure
        assert first.metadata == again.metadata
        for f in dataclasses.fields(SimulationTrace):
            if f.name != "metadata":
                assert np.array_equal(getattr(first, f.name), getattr(again, f.name)), f.name
