"""Batch command line for the library: data generation, training, evaluation,
controller design, closed-loop simulation, and the linearizability check.

Every command reads one YAML config and writes its outputs into a run
directory.  Runs are reproducible by construction: outputs depend only on
the config, the seed, and the referenced input files, and contain no
timestamps, so repeating a command yields byte-identical files.  Each run
directory gets a verbatim copy of the config (config.echo.yaml) and a
summary.json recording the config's sha256, the effective seed, and the
files written.

Config layout: a top-level `seed` (default 0, overridden by --seed), an
`output` directory (overridden by --out), and one section per concern; see
the command functions for the accepted keys.  Unknown keys anywhere are
rejected.  Blocks with their own `seed` key default to fixed offsets from
the global seed so one flag reseeds a whole run coherently.

Exit status is 0 exactly when every declared output was written; input or
config errors report one line on stderr and exit 1.  A "fail" verdict from
the linearizability check is a result, not an error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np
import yaml

from . import liecheck
from .control import CONTROLLERS, BarrierSpec, design_lqr
from .errors import ElcontrolError, ValidationError
from .liecheck import VectorFieldPair, check_linearizable, compile_field
from .model import (ELModel, ModelArch, ModelDims, TrainConfig,
                    TrajectoryDataset, load_model, read_csv, save_model,
                    write_csv, write_table)
from .model import train as train_model
from .simulate import (MismatchPlant, TeacherPlant, gen_excitation,
                       metrics_r2, simulate_closed_loop, simulate_open_loop,
                       step_schedule, write_trace_csv)

_MISSING = object()


# ---------------------------------------------------------------------------
# config plumbing

def _mapping(node, where):
    if not isinstance(node, dict):
        raise ValidationError(f"{where} must be a mapping")
    return node


def _check_keys(node, allowed, where):
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ValidationError(
            f"{where}: unknown keys {unknown}; allowed keys are {sorted(allowed)}")


def _get(node, key, where, default=_MISSING):
    if key not in node or node[key] is None:
        if default is _MISSING:
            raise ValidationError(f"{where}: missing required key {key!r}")
        return default
    return node[key]


def _path(node, key, where, default=_MISSING):
    value = _get(node, key, where, default)
    if value is not default and not isinstance(value, str):
        raise ValidationError(f"{where}.{key} must be a file path, got {value!r}")
    return value


def _float(node, key, where, default=_MISSING):
    value = _get(node, key, where, default)
    number = _numbers(value, f"{where}.{key}")
    if number.ndim:
        raise ValidationError(f"{where}.{key} must be a finite number, got {value!r}")
    return float(number)


def _int(node, key, where, default=_MISSING):
    value = _get(node, key, where, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where}.{key} must be an integer, got {value!r}")
    return value


def _numbers(value, where):
    """A finite number or (nested) list of finite numbers as a float64 array."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError(f"{where} must be numeric, got {value!r}") from None
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{where} must be finite, got {value!r}")
    return arr


def _vector(value, where, width=None):
    arr = _numbers(value, where).reshape(-1)
    if width is not None:
        if arr.size == 1:
            arr = np.full(width, arr[0])
        elif arr.size != width:
            raise ValidationError(f"{where} must have {width} entries, got {arr.size}")
    return arr


def _weight(node, key, n):
    """Quadratic cost weight: scalar -> scaled identity, vector -> diagonal,
    nested lists -> full matrix."""
    value = _get(node, key, "weights", None)
    if value is None:
        return np.eye(n)
    arr = _numbers(value, f"weights.{key}")
    if arr.ndim == 0:
        return float(arr) * np.eye(n)
    if arr.ndim == 1:
        if arr.size != n:
            raise ValidationError(f"weights.{key} diagonal must have {n} entries")
        return np.diag(arr)
    if arr.shape != (n, n):
        raise ValidationError(f"weights.{key} must be {n}x{n}, got {arr.shape}")
    return arr


def _weights(cfg, dims):
    """The (Q, R) pair of the config's optional `weights` section."""
    weights = _mapping(_get(cfg, "weights", "config", {}), "weights")
    _check_keys(weights, {"q", "r"}, "weights")
    return _weight(weights, "q", dims.ny), _weight(weights, "r", dims.nu)


def _dims(node, where):
    node = _mapping(node, where)
    _check_keys(node, {"ny", "nu", "nd", "nz"}, where)
    return ModelDims(_int(node, "ny", where), _int(node, "nu", where),
                     _int(node, "nd", where), _int(node, "nz", where))


def _arch(node, where):
    if node is None:
        return None
    node = _mapping(node, where)
    allowed = {"phi_depth", "phi_hidden", "psi_depth", "psi_hidden",
               "xi_depth", "xi_hidden", "core_hidden"}
    _check_keys(node, allowed, where)
    return ModelArch(**{k: _int(node, k, where) for k in node})


def _signal(node, width, duration, default_seed, where):
    node = _mapping(node, where)
    _check_keys(node, {"kind", "period", "low", "high", "seed"}, where)
    kind = _get(node, "kind", where)
    low = _vector(_get(node, "low", where), f"{where}.low", width)
    high = _vector(_get(node, "high", where), f"{where}.high", width)
    return gen_excitation(kind, duration, _float(node, "period", where),
                          (low, high), seed=_int(node, "seed", where, default_seed))


def _timeseries(node, width, where):
    """Reference or disturbance input: {constant: [...]} or
    {schedule: {times: [...], values: [[...], ...]}}."""
    node = _mapping(node, where)
    _check_keys(node, {"constant", "schedule"}, where)
    if ("constant" in node) == ("schedule" in node):
        raise ValidationError(f"{where}: give exactly one of constant/schedule")
    if "constant" in node:
        return _vector(node["constant"], f"{where}.constant", width)
    sched = _mapping(node["schedule"], f"{where}.schedule")
    _check_keys(sched, {"times", "values"}, f"{where}.schedule")
    times = _vector(_get(sched, "times", where), f"{where}.schedule.times")
    values = np.atleast_2d(_numbers(_get(sched, "values", where), f"{where}.schedule.values"))
    if values.shape[1] != width:
        raise ValidationError(f"{where}.schedule.values rows must have {width} entries")
    return step_schedule(times, values)


# ---------------------------------------------------------------------------
# output plumbing

def _jsonable(value):
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if np.isfinite(v) else None
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _write_json(run, name, obj):
    with open(run.path(name), "w") as f:
        json.dump(_jsonable(obj), f, sort_keys=True, indent=1)
        f.write("\n")


class _Run:
    """One run directory: tracks the files written for the summary."""

    def __init__(self, out):
        self.out = out
        self.written = []

    def path(self, name):
        self.written.append(name)
        return os.path.join(self.out, name)


def _safe_r2(predicted, actual):
    try:
        return metrics_r2(predicted, actual)
    except ValidationError:
        return float("nan")


def _write_r2(run, model, ds):
    """Per-channel R^2 of the model on `ds`: written to r2.csv and returned
    as summary entries."""
    pred_ydot = model.predict_ydot(ds.v, ds.y, ds.d, ds.d_dot)
    pred_z = model.predict_z(ds.v, ds.y, ds.d)
    rows = []
    for j in range(ds.y_dot.shape[1]):
        rows.append((f"ydot{j + 1}", _safe_r2(pred_ydot[:, j], ds.y_dot[:, j])))
    for j in range(ds.z.shape[1]):
        rows.append((f"z{j + 1}", _safe_r2(pred_z[:, j], ds.z[:, j])))
    write_table(run.path("r2.csv"), ["channel", "r2"], rows)
    return {"r2": dict(rows), "r2_mean": float(np.mean([r for _, r in rows]))}


# ---------------------------------------------------------------------------
# commands

def _plant_from(node, seed, where):
    node = _mapping(node, where)
    kind = _get(node, "kind", where)
    if kind == "teacher":
        _check_keys(node, {"kind", "model", "seed", "dims", "arch"}, where)
        model = _path(node, "model", where, None)
        if model is not None:
            return TeacherPlant(load_model(model)), False
        dims = _dims(node["dims"], f"{where}.dims") if "dims" in node else ModelDims(3, 3, 2, 2)
        arch = _arch(node.get("arch"), f"{where}.arch")
        teacher = ELModel.random(dims, arch, seed=_int(node, "seed", where, seed))
        return TeacherPlant(teacher), True
    if kind == "mismatch":
        _check_keys(node, {"kind"}, where)
        return MismatchPlant(), False
    raise ValidationError(f"{where}.kind must be teacher or mismatch, got {kind!r}")


def _run_gen_data(cfg, seed, run):
    _check_keys(cfg, {"seed", "output", "plant", "dataset", "excitation"}, "config")
    plant, synthesized = _plant_from(_get(cfg, "plant", "config"), seed, "plant")
    if synthesized:
        save_model(plant.model, run.path("plant_model.npz"))

    ds_cfg = _mapping(_get(cfg, "dataset", "config"), "dataset")
    _check_keys(ds_cfg, {"duration", "step", "y0", "fd_tol"}, "dataset")
    duration = _float(ds_cfg, "duration", "dataset")
    step = _float(ds_cfg, "step", "dataset")
    fd_tol = _float(ds_cfg, "fd_tol", "dataset", 1e-2)
    if duration < 0:
        raise ValidationError("dataset.duration must be nonnegative")
    exc = _mapping(_get(cfg, "excitation", "config"), "excitation")
    _check_keys(exc, {"v", "d"}, "excitation")
    for name in ("v", "d"):
        _check_keys(_mapping(_get(exc, name, "excitation"), f"excitation.{name}"),
                    {"kind", "period", "low", "high", "seed"}, f"excitation.{name}")
    if duration == 0.0:
        # no samples to take; publish the column layout and succeed
        dims = plant.dims
        empty = TrajectoryDataset(
            np.zeros(0), np.zeros((0, dims.nu)), np.zeros((0, dims.nd)),
            np.zeros((0, dims.ny)), np.zeros((0, dims.nz)),
            d_dot=np.zeros((0, dims.nd)), y_dot=np.zeros((0, dims.ny)), fd_tol=fd_tol)
        write_csv(empty, run.path("dataset.csv"))
        run.written.append("dataset.csv.meta.json")
        return {"rows": 0, "duration": 0.0}

    y0 = _vector(_get(ds_cfg, "y0", "dataset", 0.0), "dataset.y0", plant.dims.ny)
    v = _signal(exc["v"], plant.dims.nu, duration, seed + 1, "excitation.v")
    d = _signal(exc["d"], plant.dims.nd, duration, seed + 2, "excitation.d")

    dataset = simulate_open_loop(plant, v, d, y0, step, fd_tol=fd_tol)
    write_csv(dataset, run.path("dataset.csv"))
    run.written.append("dataset.csv.meta.json")
    return {"rows": len(dataset), "duration": duration, "step": step}


def _run_train(cfg, seed, run):
    _check_keys(cfg, {"seed", "output", "dataset", "dims", "arch", "init",
                      "train", "holdout"}, "config")
    dataset = read_csv(_path(cfg, "dataset", "config"))
    dims = _dims(_get(cfg, "dims", "config"), "dims")
    arch = _arch(cfg.get("arch"), "arch")

    init = _mapping(_get(cfg, "init", "config", {}), "init")
    _check_keys(init, {"seed", "map_scale"}, "init")
    model = ELModel.for_training(dims, dataset, arch,
                                 seed=_int(init, "seed", "init", seed + 1),
                                 map_scale=_float(init, "map_scale", "init", 0.05))

    tr = _mapping(_get(cfg, "train", "config"), "train")
    _check_keys(tr, {"epochs", "batch_size", "step_size", "decay", "seed",
                     "val_fraction"}, "train")
    train_cfg = TrainConfig(
        epochs=_int(tr, "epochs", "train"),
        batch_size=_int(tr, "batch_size", "train", 256),
        step_size=_float(tr, "step_size", "train", 1e-2),
        decay=_float(tr, "decay", "train", 1.0),
        seed=_int(tr, "seed", "train", seed + 2),
        val_fraction=_float(tr, "val_fraction", "train", 0.2))
    trained, history = train_model(model, dataset, train_cfg)
    save_model(trained, run.path("model.npz"))

    has_val = bool(history["val"])
    header = ["epoch", "train_loss"] + (["val_loss"] if has_val else [])
    rows = [(float(i), tl) + ((history["val"][i],) if has_val else ())
            for i, tl in enumerate(history["train"])]
    write_table(run.path("history.csv"), header, rows)

    summary = {"epochs": train_cfg.epochs, "rows": len(dataset)}
    if history["train"]:
        summary["final_train_loss"] = history["train"][-1]
    if has_val:
        summary["final_val_loss"] = history["val"][-1]
    holdout = _path(cfg, "holdout", "config", None)
    if holdout is not None:
        summary.update(_write_r2(run, trained, read_csv(holdout)))
    return summary


def _run_eval(cfg, seed, run):
    _check_keys(cfg, {"seed", "output", "model", "dataset"}, "config")
    model = load_model(_path(cfg, "model", "config"))
    dataset = read_csv(_path(cfg, "dataset", "config"))
    if (dataset.y.shape[1], dataset.v.shape[1], dataset.d.shape[1], dataset.z.shape[1]) \
            != (model.dims.ny, model.dims.nu, model.dims.nd, model.dims.nz):
        raise ValidationError("dataset channel counts do not match the model")
    return {"rows": len(dataset), **_write_r2(run, model, dataset)}


def _run_design_lqr(cfg, seed, run):
    _check_keys(cfg, {"seed", "output", "model", "target", "weights"}, "config")
    model = load_model(_path(cfg, "model", "config"))
    target = _mapping(_get(cfg, "target", "config"), "target")
    _check_keys(target, {"y", "d", "tol"}, "target")
    y_target = _vector(_get(target, "y", "target"), "target.y", model.dims.ny)
    d_bar = _vector(_get(target, "d", "target"), "target.d", model.dims.nd)
    Q, R = _weights(cfg, model.dims)

    design = design_lqr(model, y_target, d_bar, Q, R,
                        target_tol=_float(target, "tol", "target", 1e-6))
    A, B, _ = model.linear_core(d_bar)
    eigs = np.linalg.eigvals(A - B @ design.K)
    _write_json(run, "design.json", {
        "P": design.P, "K": design.K, "x_d": design.x_d, "u_d": design.u_d,
        "Q": design.Q, "R": design.R, "y_target": y_target, "d_bar": d_bar,
        "closed_loop_eigs_real": np.sort(eigs.real)})
    return {"spectral_abscissa": float(np.max(eigs.real))}


def _barrier(node, nu, nz, where):
    node = _mapping(node, where)
    allowed = {"z_max", "v_min", "v_max", "k1", "k2", "rate_weight", "margin"}
    _check_keys(node, allowed, where)
    return BarrierSpec(
        z_max=_vector(_get(node, "z_max", where), f"{where}.z_max", nz),
        v_min=_vector(_get(node, "v_min", where), f"{where}.v_min", nu),
        v_max=_vector(_get(node, "v_max", where), f"{where}.v_max", nu),
        k1=_float(node, "k1", where, 1.0), k2=_float(node, "k2", where, 1.0),
        rate_weight=_float(node, "rate_weight", where, 1.0),
        margin=_float(node, "margin", where, 0.0))


def _trace_summary(model, trace, y_d):
    summary = {"ticks": len(trace),
               "max_h": float(trace.h.max()) if trace.h.size else None}
    if not len(trace):
        return summary
    target = (np.array([np.asarray(y_d(t), dtype=np.float64) for t in trace.t])
              if callable(y_d) else np.broadcast_to(y_d, trace.y.shape))
    err = trace.y - target
    pred_z = model.predict_z(trace.v, trace.y, trace.d)
    summary.update({
        "tracking_rmse": np.sqrt(np.mean(np.square(err), axis=0)),
        "tracking_rmse_total": float(np.sqrt(np.mean(np.square(err)))),
        "final_error": float(np.linalg.norm(err[-1])),
        "r2_z": [_safe_r2(pred_z[:, j], trace.z[:, j])
                 for j in range(trace.z.shape[1])]})
    return summary


def _write_plot_script(run, controllers, ny):
    plots = [f"'trace_{ctrl}.csv' using 1:{2 + j} with lines"
             for ctrl in controllers for j in range(ny)]
    lines = ["set datafile separator ','",
             "set key autotitle columnhead",
             "set xlabel 't'",
             "plot " + ", \\\n     ".join(plots)]
    with open(run.path("plot.gp"), "w") as f:
        f.write("\n".join(lines) + "\n")


def _run_simulate(cfg, seed, run):
    allowed = {"seed", "output", "model", "plant", "controllers", "target",
               "disturbance", "horizon", "control_period", "substeps", "y0",
               "u0", "noise_std", "weights", "barrier", "plots"}
    _check_keys(cfg, allowed, "config")
    model = load_model(_path(cfg, "model", "config"))
    plant, _ = _plant_from(_get(cfg, "plant", "config"), seed, "plant")

    controllers = _get(cfg, "controllers", "config")
    if not isinstance(controllers, list) or not controllers:
        raise ValidationError("controllers must be a nonempty list")
    unknown = [c for c in controllers if not isinstance(c, str) or c not in CONTROLLERS]
    if unknown:
        raise ValidationError(f"controllers: unknown {unknown}; "
                              f"known controllers are {sorted(CONTROLLERS)}")
    if len(set(controllers)) != len(controllers):
        raise ValidationError("controllers are repeated")

    y_d = _timeseries(_get(cfg, "target", "config"), model.dims.ny, "target")
    d = _timeseries(_get(cfg, "disturbance", "config"), model.dims.nd, "disturbance")
    Q, R = _weights(cfg, model.dims)
    spec = (_barrier(cfg["barrier"], model.dims.nu, model.dims.nz, "barrier")
            if "barrier" in cfg else None)
    if "icbf" in controllers and spec is None:
        raise ValidationError("config: the icbf controller needs a barrier section")

    y0, u0 = (_get(cfg, key, "config", None) for key in ("y0", "u0"))
    kwargs = dict(
        control_period=_float(cfg, "control_period", "config", 1e-3),
        substeps=_int(cfg, "substeps", "config", 10),
        noise_std=_float(cfg, "noise_std", "config", 0.0),
        Q=Q, R=R, spec=spec, seed=seed,
        y0=None if y0 is None else _vector(y0, "config.y0", model.dims.ny),
        u0=None if u0 is None else _vector(u0, "config.u0", model.dims.nu))
    horizon = _float(cfg, "horizon", "config")

    summaries = {}
    for ctrl in controllers:
        try:
            trace = simulate_closed_loop(plant, model, ctrl, y_d, d, horizon, **kwargs)
        except ElcontrolError as exc:
            partial = getattr(exc, "trace", None)
            if partial is not None and len(partial):
                write_trace_csv(partial, run.path(f"trace_{ctrl}.partial.csv"))
            raise
        write_trace_csv(trace, run.path(f"trace_{ctrl}.csv"))
        summaries[ctrl] = _trace_summary(model, trace, y_d)

    if cfg.get("plots", False):
        _write_plot_script(run, controllers, model.dims.ny)

    summary = {"controllers": summaries, "horizon": horizon}
    if len(controllers) > 1:
        summary["comparison"] = {
            key: {c: summaries[c][key] for c in controllers}
            for key in ("tracking_rmse_total", "max_h")}
    return summary


def _system_from(node, where, allow_file=True):
    node = _mapping(node, where)
    _check_keys(node, {"fixture", "n", "file", "f", "g"}, where)
    sources = [k for k in ("fixture", "file", "f") if k in node]
    if len(sources) != 1 or (not allow_file and "file" in node):
        raise ValidationError(
            f"{where}: give exactly one of fixture, file, or inline f/g"
            + ("" if allow_file else " (a system file cannot point to another file)"))
    if "fixture" in node:
        name = node["fixture"]
        if name == "integrator-chain":
            return liecheck.integrator_chain(_int(node, "n", where, 3))
        if name == "noninvolutive-chain":
            if _int(node, "n", where, 3) != 3:
                raise ValidationError(f"{where}: the noninvolutive fixture has n = 3")
            return liecheck.noninvolutive_chain()
        raise ValidationError(
            f"{where}.fixture must be integrator-chain or noninvolutive-chain, "
            f"got {name!r}")
    if "file" in node:
        path = _path(node, "file", where)
        with open(path) as f:
            loaded = yaml.safe_load(f)
        return _system_from(_mapping(loaded, path), path, allow_file=False)
    n = _int(node, "n", where)
    f_exprs, g_exprs = _get(node, "f", where), _get(node, "g", where)
    return VectorFieldPair(compile_field(f_exprs, n), compile_field(g_exprs, n), n)


def _run_check_linearizable(cfg, seed, run):
    _check_keys(cfg, {"seed", "output", "system", "domain", "samples", "tol"},
                "config")
    system = _system_from(_get(cfg, "system", "config"), "system")
    domain = _mapping(_get(cfg, "domain", "config"), "domain")
    _check_keys(domain, {"low", "high"}, "domain")
    low = _vector(_get(domain, "low", "domain"), "domain.low", system.n)
    high = _vector(_get(domain, "high", "domain"), "domain.high", system.n)

    report = check_linearizable(system, (low, high),
                                samples=_int(cfg, "samples", "config", 100),
                                tol=_float(cfg, "tol", "config", 1e-6), seed=seed)
    _write_json(run, "report.json", {
        "verdict": report.verdict, "tol": report.tol, "note": report.note,
        "samples": len(report.points), "seed": seed,
        "domain": {"low": low, "high": high},
        "min_rank_ratio": float(report.rank_ratios.min()),
        "max_involutivity_residual": (float(report.involutivity_residuals.max())
                                      if report.involutivity_residuals.size else None),
        "ranks": report.ranks, "rank_ratios": report.rank_ratios,
        "involutivity_residuals": report.involutivity_residuals,
        "points": report.points})
    print(f"verdict: {report.verdict}")
    return {"verdict": report.verdict, "tol": report.tol}


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "gen-data": _run_gen_data,
    "train": _run_train,
    "eval": _run_eval,
    "design-lqr": _run_design_lqr,
    "simulate": _run_simulate,
    "check-linearizable": _run_check_linearizable,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="elcontrol",
        description="Batch runner: every command reads a YAML config and "
                    "writes reproducible outputs into a run directory.")
    blurbs = {
        "gen-data": "excite a plant and record a trajectory dataset",
        "train": "fit a latent-linear model to a dataset",
        "eval": "score a model on a dataset (per-channel R^2)",
        "design-lqr": "solve the regulator design for a saved model",
        "simulate": "run one or more controllers closed loop",
        "check-linearizable": "sampled exact-linearizability check",
    }
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=blurbs[name])
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's global seed")
        p.add_argument("--out", default=None,
                       help="override the config's output directory")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config) as f:
            raw = f.read()
        cfg = yaml.safe_load(raw)
        cfg = _mapping({} if cfg is None else cfg, "config")
        seed = args.seed if args.seed is not None else _int(cfg, "seed", "config", 0)
        out = args.out if args.out is not None else _get(cfg, "output", "config", None)
        if not isinstance(out, str):
            raise ValidationError(
                "no output directory path: set `output` in the config or pass --out")
        os.makedirs(out, exist_ok=True)
        run = _Run(out)
        with open(run.path("config.echo.yaml"), "w") as f:
            f.write(raw)
        body = _COMMANDS[args.command](cfg, seed, run)
        summary = {"command": args.command, "seed": seed,
                   "config_sha256": hashlib.sha256(raw.encode()).hexdigest(),
                   "outputs": sorted(run.written)}
        summary.update(body)
        _write_json(run, "summary.json", summary)
    except (ElcontrolError, OSError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(run.written)} files to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
