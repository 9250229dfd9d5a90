"""Synthetic plants, excitation signals, and deterministic simulation.

Ground truth comes from two plant families: a randomly initialized latent-
linear model (so identification can in principle be exact) and a hand-written
nonlinear ODE outside that family (so model mismatch is exercised).  Open-
loop runs synthesize training datasets with exact derivative columns taken
from the plant itself; closed-loop runs hold each commanded input for one
control period and integrate the plant with RK4 substeps between ticks.

Everything here is deterministic: signals are seeded, plants are pure
functions, and traces carry the seed and configuration that produced them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .control import (CONTROLLERS, BarrierSpec, ControllerState, DesignCache,
                      barrier_values)
from .errors import ValidationError
from .model import ELModel, ModelDims, TrajectoryDataset, write_blocks

SAFETY_FACTOR = 10.0
SUBSTEPS_PER_TICK = 10

EXCITATION_KINDS = ("chirp", "prbs", "sum-of-sines")


# ---------------------------------------------------------------------------
# excitation signals


@dataclass(frozen=True)
class ExcitationSignal:
    """A seeded input signal with an analytic time derivative.

    Calling the signal returns the channel vector at time t; `derivative`
    returns its slope (zero for the piecewise-constant kinds).  `band` is the
    swept frequency interval for chirps, None otherwise.
    """

    kind: str
    low: np.ndarray
    high: np.ndarray
    duration: float
    period: float
    band: tuple | None
    _value: object
    _slope: object

    def __call__(self, t):
        return self._value(float(t))

    def derivative(self, t):
        return self._slope(float(t))


def gen_excitation(kind, duration, period, box, seed=0):
    """Build a chirp, prbs, or sum-of-sines signal inside `box`.

    box is a (low, high) pair of equal-length vectors (scalars broadcast to
    one channel); low == high is allowed and yields a constant channel.  The
    signal is fully determined by (kind, duration, period, box, seed).
    """
    if kind not in EXCITATION_KINDS:
        raise ValidationError(f"unknown excitation kind {kind!r}")
    if not duration > 0 or not period > 0:
        raise ValidationError("duration and period must be positive")
    low = np.atleast_1d(np.asarray(box[0], dtype=np.float64))
    high = np.atleast_1d(np.asarray(box[1], dtype=np.float64))
    if low.shape != high.shape or low.ndim != 1:
        raise ValidationError("box must be a (low, high) pair of equal-length vectors")
    if np.any(low > high):
        raise ValidationError("box must satisfy low <= high per channel")
    k = low.shape[0]
    mid = 0.5 * (low + high)
    # strict interior so floating-point never lands outside the box
    amp = 0.95 * 0.5 * (high - low)
    rng = np.random.default_rng(seed)
    band = None

    if kind == "sum-of-sines":
        n_tones = 4
        f_lo, f_hi = 1.0 / duration, 1.0 / (20.0 * period)
        f_hi = max(f_hi, 2.0 * f_lo)
        freqs = np.exp(rng.uniform(np.log(f_lo), np.log(f_hi), size=(n_tones, k)))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(n_tones, k))
        weights = rng.uniform(0.5, 1.0, size=(n_tones, k))
        weights = weights / weights.sum(axis=0)
        omega = 2.0 * np.pi * freqs

        def value(t):
            return mid + amp * np.sum(weights * np.sin(omega * t + phases), axis=0)

        def slope(t):
            return amp * np.sum(weights * omega * np.cos(omega * t + phases), axis=0)

    elif kind == "prbs":
        n_chips = int(np.ceil(duration / period)) + 1
        chips = rng.integers(0, 2, size=(n_chips, k)).astype(np.float64)
        levels = low + chips * (high - low)

        def value(t):
            idx = min(int(t / period), n_chips - 1) if t >= 0 else 0
            return levels[idx].copy()

        def slope(t):
            return np.zeros(k)

    else:  # chirp
        f_lo, f_hi = 1.0 / duration, 1.0 / (20.0 * period)
        if f_hi <= f_lo:
            raise ValidationError("chirp needs period << duration to sweep a band")
        band = (f_lo, f_hi)
        rate = (f_hi - f_lo) / duration
        phases = rng.uniform(0.0, 2.0 * np.pi, size=k)

        def value(t):
            phase = 2.0 * np.pi * (f_lo * t + 0.5 * rate * t * t)
            return mid + amp * np.sin(phase + phases)

        def slope(t):
            phase = 2.0 * np.pi * (f_lo * t + 0.5 * rate * t * t)
            return amp * np.cos(phase + phases) * (2.0 * np.pi * (f_lo + rate * t))

    return ExcitationSignal(kind=kind, low=low, high=high, duration=float(duration),
                            period=float(period), band=band, _value=value, _slope=slope)


def step_schedule(times, values):
    """Piecewise-constant schedule: values[i] holds on [times[i], times[i+1]).

    times must start at 0 and increase; before t=0 the first value holds.
    """
    times = np.asarray(times, dtype=np.float64).reshape(-1)
    table = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if table.shape[0] != times.shape[0]:
        raise ValidationError("one value row per switching time is required")
    if times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValidationError("switching times must start at 0 and increase")

    def schedule(t):
        idx = int(np.searchsorted(times, t, side="right")) - 1
        return table[max(idx, 0)].copy()

    return schedule


def _slope_of(signal, width):
    if hasattr(signal, "derivative"):
        return signal.derivative
    return lambda t: np.zeros(width)


# ---------------------------------------------------------------------------
# plants


class Plant:
    """Ground-truth system: dy/dt = derivative(y, v, d), z = outputs(y, v, d).

    Subclasses set `dims` and `operating_box` (a (low, high) pair over y);
    simulations abort once the state leaves SAFETY_FACTOR times that box.
    d_dot feeds plants whose output coordinates are disturbance-dependent and
    may be omitted when the disturbance is frozen.
    """

    dims: ModelDims
    operating_box: tuple

    def derivative(self, y, v, d, d_dot=None):
        raise NotImplementedError

    def outputs(self, y, v, d):
        raise NotImplementedError


class TeacherPlant(Plant):
    """A randomly initialized latent-linear model acting as the true system."""

    def __init__(self, model=None, seed=0, operating_box=None):
        if model is None:
            model = ELModel.random(ModelDims(3, 3, 2, 2), seed=seed)
        self.model = model
        self.dims = model.dims
        if operating_box is None:
            operating_box = (-5.0 * np.ones(self.dims.ny), 5.0 * np.ones(self.dims.ny))
        self.operating_box = operating_box

    def derivative(self, y, v, d, d_dot=None):
        if d_dot is None:
            d_dot = np.zeros(self.dims.nd)
        return self.model.predict_ydot(v, y, d, d_dot)

    def outputs(self, y, v, d):
        return self.model.predict_z(v, y, d)


class MismatchPlant(Plant):
    """Hand-written nonlinear ODE outside the latent-linear family.

    The input enters multiplicatively with the state, so no exact latent
    linearization exists and identification must settle for approximation.
    """

    def __init__(self):
        self.dims = ModelDims(2, 2, 1, 1)
        self.operating_box = (-4.0 * np.ones(2), 4.0 * np.ones(2))

    def derivative(self, y, v, d, d_dot=None):
        y = np.asarray(y, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        d = np.asarray(d, dtype=np.float64)
        return np.array([
            -1.2 * y[0] + 0.8 * y[1] + v[0] + 0.2 * y[1] ** 2 - 0.1 * y[0] ** 3,
            -0.9 * y[1] + v[1] * (1.0 + 0.25 * np.tanh(y[0])) + 0.3 * d[0]
            - 0.1 * y[1] ** 3,
        ])

    def outputs(self, y, v, d):
        y = np.asarray(y, dtype=np.float64)
        return np.array([y[0] ** 2 + y[1] ** 2])


def _check_inside_safety_box(y, plant):
    low, high = plant.operating_box
    center = 0.5 * (np.asarray(low) + np.asarray(high))
    half = 0.5 * (np.asarray(high) - np.asarray(low))
    if not np.all(np.isfinite(y)) or np.any(np.abs(y - center) > SAFETY_FACTOR * half):
        raise ValidationError(
            "trajectory diverged outside the safety box "
            f"({SAFETY_FACTOR:g}x the operating range)")


def _hold(plant, y, v, d, d_slope, t, period, substeps):
    """Integrate the plant from y over [t, t + period] with v held, by `substeps` RK4 steps."""
    def ydot(tau, state):
        return plant.derivative(state, v,
                                np.atleast_1d(np.asarray(d(tau), dtype=np.float64)),
                                np.atleast_1d(np.asarray(d_slope(tau), dtype=np.float64)))

    h = period / substeps
    for j in range(substeps):
        tau = t + j * h
        k1 = ydot(tau, y)
        k2 = ydot(tau + 0.5 * h, y + 0.5 * h * k1)
        k3 = ydot(tau + 0.5 * h, y + 0.5 * h * k2)
        k4 = ydot(tau + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def simulate_open_loop(plant, v, d, y0, step, steps=None, fd_tol=1e-2):
    """Integrate the plant under v(t), d(t) and log a training dataset.

    v is held constant over each step (zero-order hold); d is evaluated at
    the RK4 stage times so its logged derivative stays consistent with the
    integrated path.  Derivative columns come from the plant's own derivative
    function, not from differencing.  steps defaults to v.duration / step
    when the signal carries a duration.
    """
    if not step > 0:
        raise ValidationError("step must be positive")
    if steps is None:
        if not hasattr(v, "duration"):
            raise ValidationError("steps is required when v carries no duration")
        steps = int(round(v.duration / step))
    if steps < 0:
        raise ValidationError("steps must be nonnegative")
    d_slope = _slope_of(d, plant.dims.nd)
    y = np.asarray(y0, dtype=np.float64).copy()
    t_grid = np.arange(steps + 1) * step
    rows = []
    for k, t in enumerate(t_grid):
        _check_inside_safety_box(y, plant)
        v_k, d_k, dd_k = (np.atleast_1d(np.asarray(f(t), dtype=np.float64))
                          for f in (v, d, d_slope))
        rows.append((v_k, d_k, dd_k, y.copy(), plant.derivative(y, v_k, d_k, dd_k),
                     np.atleast_1d(plant.outputs(y, v_k, d_k))))
        if k < steps:
            y = _hold(plant, y, v_k, d, d_slope, t, step, 1)
    v_col, d_col, dd_col, y_col, ydot_col, z_col = (np.array(col) for col in zip(*rows))
    return TrajectoryDataset(t_grid, v_col, d_col, y_col, z_col, d_dot=dd_col,
                             y_dot=ydot_col, fd_tol=fd_tol)


# ---------------------------------------------------------------------------
# closed loop


@dataclass(frozen=True)
class SimulationTrace:
    """One row per control tick: the state measured at the tick and the
    input held until the next one.  Empty arrays (zero ticks) are legal;
    metadata always survives."""

    t: np.ndarray
    y: np.ndarray
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    z: np.ndarray
    h: np.ndarray
    lam: np.ndarray
    d: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if f.name == "metadata":
                continue
            arr = np.asarray(getattr(self, f.name), dtype=np.float64)
            object.__setattr__(self, f.name, arr)
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"non-finite values in trace column {f.name}")
        if self.t.ndim != 1:
            raise ValidationError("time grid must be one-dimensional")
        if self.t.shape[0] >= 2:
            steps = np.diff(self.t)
            if np.max(np.abs(steps - steps[0])) > 1e-9 * max(steps[0], 1e-12):
                raise ValidationError("trace time grid is not uniform")

    def __len__(self):
        return self.t.shape[0]


def write_trace_csv(trace, path):
    """One CSV row per control tick; column order fixed by the header."""
    write_blocks(path, [("t", trace.t), ("y", trace.y), ("x", trace.x),
                        ("u", trace.u), ("v", trace.v), ("z", trace.z), ("h", trace.h),
                        ("lam", trace.lam), ("d", trace.d)])


def simulate_closed_loop(plant, model, controller, y_d, d, horizon,
                         control_period=1e-3, Q=None, R=None, spec=None,
                         y0=None, u0=None, substeps=SUBSTEPS_PER_TICK,
                         target_tol=1e-6, noise_std=0.0, seed=0,
                         metadata=None):
    """Run one controller against the plant and log every tick.

    At each tick the output is measured, lifted to latent coordinates
    through the model, and the controller's tick function
    (`control.CONTROLLERS[controller]`) picks the physical input u; v = Psi(u)
    is held for one control period while the plant integrates with RK4
    substeps.  y_d and d may be constant vectors or callables of time (see
    step_schedule); linear designs are cached per target and per quantized
    disturbance.  The rate-based filter needs `spec`; its input state starts
    at u0, by default at the preimage of the box midpoint of (v_min, v_max).
    Optional Gaussian measurement noise (noise_std > 0) perturbs only what
    the controller sees.

    A failure mid-run re-raises with `trace` attached holding every row
    written so far, including a tick whose plant integration then failed.
    """
    if not isinstance(controller, str) or controller not in CONTROLLERS:
        raise ValidationError(f"unknown controller {controller!r}")
    if plant.dims != model.dims:
        raise ValidationError("plant and model dimensions disagree")
    if not control_period > 0:
        raise ValidationError("control period must be positive")
    if horizon < 0:
        raise ValidationError("horizon must be nonnegative")
    if substeps < 1:
        raise ValidationError("at least one integration substep is required")
    if controller == "icbf" and spec is None:
        raise ValidationError("the rate-based filter needs a BarrierSpec")

    tick = CONTROLLERS[controller]
    dims = model.dims
    Q = np.eye(dims.ny) if Q is None else np.asarray(Q, dtype=np.float64)
    R = np.eye(dims.nu) if R is None else np.asarray(R, dtype=np.float64)
    y = np.zeros(dims.ny) if y0 is None else np.asarray(y0, dtype=np.float64).copy()
    y_d_fn = y_d if callable(y_d) else (lambda t, _v=np.asarray(y_d, dtype=np.float64): _v)
    d_fn = d if callable(d) else (lambda t, _v=np.asarray(d, dtype=np.float64): _v)
    d_slope = _slope_of(d, dims.nd)
    rng = np.random.default_rng(seed)

    dt = float(control_period)
    ticks = int(round(horizon / dt))
    caches = {}
    meta = {"controller": controller, "control_period": dt, "horizon": float(horizon),
            "substeps": int(substeps), "seed": int(seed), "noise_std": float(noise_std),
            **(metadata or {})}
    shapes = {"t": (), "y": (dims.ny,), "x": (dims.ny,), "u": (dims.nu,), "v": (dims.nu,),
              "z": (dims.nz,), "h": (spec.n_rows if spec is not None else 0,),
              "lam": (dims.nu,), "d": (dims.nd,)}
    columns = {name: np.zeros((ticks,) + shape) for name, shape in shapes.items()}
    done = 0

    def trace(rows):
        return SimulationTrace(**{name: col[:rows] for name, col in columns.items()},
                               metadata=meta)

    try:
        state = None if u0 is None else ControllerState(u=u0)
        for k in range(ticks):
            t = k * dt
            _check_inside_safety_box(y, plant)
            d_bar = np.atleast_1d(np.asarray(d_fn(t), dtype=np.float64))
            target = np.atleast_1d(np.asarray(y_d_fn(t), dtype=np.float64))
            key = target.tobytes()
            if key not in caches:
                caches[key] = DesignCache(model, target, Q, R, target_tol=target_tol)
            design = caches[key].design_for(d_bar)

            measured = y + rng.normal(0.0, noise_std, dims.ny) if noise_std > 0 else y
            x = model.x_from_y(measured, d_bar)
            lam, state, u, v_cmd = tick(model, state, x, measured, d_bar, design, spec, dt)
            row = {"t": t, "y": measured, "x": x, "u": u, "v": v_cmd,
                   "z": plant.outputs(y, v_cmd, d_bar),
                   "h": barrier_values(model, x, u, d_bar, spec)[0] if spec is not None else (),
                   "lam": lam, "d": d_bar}
            for name, value in row.items():
                columns[name][k] = value
            done = k + 1
            y = _hold(plant, y, v_cmd, d_fn, d_slope, t, dt, substeps)
    except Exception as exc:
        exc.trace = trace(done)
        raise
    return trace(ticks)


# ---------------------------------------------------------------------------
# metrics


def metrics_r2(predicted, actual):
    """Coefficient of determination 1 - SS_res / SS_tot for one channel."""
    p = np.asarray(predicted, dtype=np.float64).reshape(-1)
    a = np.asarray(actual, dtype=np.float64).reshape(-1)
    if p.shape != a.shape:
        raise ValidationError("predicted and actual lengths differ")
    if a.shape[0] < 2:
        raise ValidationError("at least two samples are required")
    ss_tot = float(np.sum((a - a.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValidationError("R^2 is undefined for a constant actual series")
    ss_res = float(np.sum((p - a) ** 2))
    return 1.0 - ss_res / ss_tot
