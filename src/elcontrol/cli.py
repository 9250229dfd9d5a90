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
`output` directory (overridden by --out), and one section per concern.
Each command's top-level keys are declared once in `_COMMANDS`, each
section's where the command reads it, as mappings from key to reader.
Unknown keys anywhere are rejected; an omitted or null key takes the
library's own default.  Blocks with their own `seed` key default to fixed
offsets from the global seed so one flag reseeds a whole run coherently.

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
from functools import partial

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
from .readers import _float, _int, _numbers, _path, _raw, _read, _read_fields, _seed, _vector
from .simulate import (MismatchPlant, TeacherPlant, gen_excitation, metrics_r2,
                       simulate_closed_loop, simulate_open_loop, step_schedule,
                       write_trace_csv)


# ---------------------------------------------------------------------------
# config plumbing: the command-specific readers (see `readers`)

def _weight(value, where, n):
    """Cost weight: scalar -> scaled identity, vector -> diagonal, else a matrix."""
    arr = _numbers(value, where)
    if arr.ndim == 0:
        return float(arr) * np.eye(n)
    if arr.ndim == 1:
        if arr.size != n:
            raise ValidationError(f"{where} diagonal must have {n} entries")
        return np.diag(arr)
    if arr.shape != (n, n):
        raise ValidationError(f"{where} must be {n}x{n}, got {arr.shape}")
    return arr


def _weights(node, dims):
    """The (Q, R) pair of the optional `weights` section."""
    weights = _read(node, "weights", {}, {"q": partial(_weight, n=dims.ny),
                                          "r": partial(_weight, n=dims.nu)})
    return weights.get("q", np.eye(dims.ny)), weights.get("r", np.eye(dims.nu))


def _timeseries(node, width, where):
    """Reference or disturbance input: {constant: [...]} or
    {schedule: {times: [...], values: [[...], ...]}}."""
    node = _read(node, where, {}, {"constant": partial(_vector, width=width),
                                   "schedule": _raw})
    if ("constant" in node) == ("schedule" in node):
        raise ValidationError(f"{where}: give exactly one of constant/schedule")
    if "constant" in node:
        return node["constant"]
    sched = _read(node["schedule"], f"{where}.schedule", {"times": _vector, "values": _numbers})
    values = np.atleast_2d(sched["values"])
    if values.shape[1] != width:
        raise ValidationError(f"{where}.schedule.values rows must have {width} entries")
    return step_schedule(sched["times"], values)


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
    pred_z = np.empty(ds.z.shape)
    pred_ydot = model.predict_ydot(ds.v, ds.y, ds.d, ds.d_dot, z_out=pred_z)
    rows = []
    for j in range(ds.y_dot.shape[1]):
        rows.append((f"ydot{j + 1}", _safe_r2(pred_ydot[:, j], ds.y_dot[:, j])))
    for j in range(ds.z.shape[1]):
        rows.append((f"z{j + 1}", _safe_r2(pred_z[:, j], ds.z[:, j])))
    write_table(run.path("r2.csv"), ["channel", "r2"], rows)
    return {"r2": dict(rows), "r2_mean": float(np.mean([r for _, r in rows]))}


# ---------------------------------------------------------------------------
# commands

def _plant_from(node, seed, where, loaded=(None, None)):
    """The plant `node` declares, and whether it was synthesized.  A teacher
    at the path of `loaded`, a (path, model) pair, runs that model."""
    kind = node.get("kind") if isinstance(node, dict) else None
    if kind == "mismatch":
        _read(node, where, {"kind": _raw})
        return MismatchPlant(), False
    plant = _read(node, where, {"kind": _raw},
                  {"model": _path, "seed": _seed, "dims": _raw, "arch": _raw})
    if kind != "teacher":
        raise ValidationError(f"{where}.kind must be teacher or mismatch, got {kind!r}")
    if "model" in plant:
        path, model = loaded
        if plant["model"] != path:
            model = load_model(plant["model"])
        return TeacherPlant(model), False
    dims = (ModelDims(**_read_fields(ModelDims, plant["dims"], f"{where}.dims"))
            if "dims" in plant else ModelDims(3, 3, 2, 2))
    arch = ModelArch(**_read_fields(ModelArch, plant.get("arch", {}), f"{where}.arch"))
    return TeacherPlant(ELModel.random(dims, arch, seed=plant.get("seed", seed))), True


def _run_gen_data(cfg, seed, run):
    plant, synthesized = _plant_from(cfg["plant"], seed, "plant")
    if synthesized:
        save_model(plant.model, run.path("plant_model.npz"))
    dims = plant.dims

    # what is left in `opts` after duration, step and y0 goes to the dataset
    opts = _read(cfg["dataset"], "dataset", {"duration": _float, "step": _float},
                 {"y0": partial(_vector, width=dims.ny), "fd_tol": _float})
    duration, step = opts.pop("duration"), opts.pop("step")
    y0 = opts.pop("y0", np.zeros(dims.ny))
    if duration < 0:
        raise ValidationError("dataset.duration must be nonnegative")
    exc = _read(cfg["excitation"], "excitation", {"v": _raw, "d": _raw})
    signals = [_read(exc[name], f"excitation.{name}",
                     {"kind": _raw, "period": _float, "low": box, "high": box}, {"seed": _seed})
               for name, box in (("v", partial(_vector, width=dims.nu)),
                                 ("d", partial(_vector, width=dims.nd)))]
    if duration == 0.0:
        # no samples to take; publish the column layout and succeed
        dataset = TrajectoryDataset(
            np.zeros(0), np.zeros((0, dims.nu)), np.zeros((0, dims.nd)),
            np.zeros((0, dims.ny)), np.zeros((0, dims.nz)),
            d_dot=np.zeros((0, dims.nd)), y_dot=np.zeros((0, dims.ny)), **opts)
        summary = {"rows": 0, "duration": 0.0}
    else:
        v, d = (gen_excitation(s["kind"], duration, s["period"], (s["low"], s["high"]),
                               seed=s.get("seed", seed + offset))
                for offset, s in enumerate(signals, 1))
        dataset = simulate_open_loop(plant, v, d, y0, step, **opts)
        summary = {"rows": len(dataset), "duration": duration, "step": step}
    run.written += map(os.path.basename, write_csv(dataset, os.path.join(run.out, "dataset.csv")))
    return summary


def _run_train(cfg, seed, run):
    dataset = read_csv(cfg["dataset"])
    dims = ModelDims(**_read_fields(ModelDims, cfg["dims"], "dims"))
    arch = ModelArch(**_read_fields(ModelArch, cfg.get("arch", {}), "arch"))
    dataset.check_dims(dims, cfg["dataset"])
    if "holdout" in cfg:
        holdout = read_csv(cfg["holdout"])
        holdout.check_dims(dims, cfg["holdout"])

    init = _read(cfg.get("init", {}), "init", {}, {"seed": _seed, "map_scale": _float})
    model = ELModel.for_training(dims, dataset, arch, **{"seed": seed + 1, **init})
    train_cfg = TrainConfig(**{"seed": seed + 2,
                               **_read_fields(TrainConfig, cfg["train"], "train", seed=_seed)})
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
    if "holdout" in cfg:
        summary.update(_write_r2(run, trained, holdout))
    return summary


def _run_eval(cfg, seed, run):
    model = load_model(cfg["model"])
    dataset = read_csv(cfg["dataset"])
    dataset.check_dims(model.dims, cfg["dataset"])
    return {"rows": len(dataset), **_write_r2(run, model, dataset)}


def _run_design_lqr(cfg, seed, run):
    model = load_model(cfg["model"])
    target = _read(cfg["target"], "target", {"y": partial(_vector, width=model.dims.ny),
                                             "d": partial(_vector, width=model.dims.nd)},
                   {"tol": _float})
    Q, R = _weights(cfg.get("weights", {}), model.dims)

    design = design_lqr(model, target["y"], target["d"], Q, R,
                        **({"target_tol": target["tol"]} if "tol" in target else {}))
    A, B, _ = model.linear_core(target["d"])
    eigs = np.linalg.eigvals(A - B @ design.K)
    _write_json(run, "design.json", {
        "P": design.P, "K": design.K, "x_d": design.x_d, "u_d": design.u_d,
        "Q": design.Q, "R": design.R, "y_target": target["y"], "d_bar": target["d"],
        "closed_loop_eigs_real": np.sort(eigs.real)})
    return {"spectral_abscissa": float(np.max(eigs.real))}


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


# simulate's top-level keys that go to simulate_closed_loop as they are
_LOOP_OPTIONS = {"control_period": _float, "substeps": _int, "noise_std": _float}


def _run_simulate(cfg, seed, run):
    model = load_model(cfg["model"])
    dims = model.dims
    plant, _ = _plant_from(cfg["plant"], seed, "plant", (cfg["model"], model))

    controllers = cfg["controllers"]
    if not isinstance(controllers, list) or not controllers:
        raise ValidationError("controllers must be a nonempty list")
    unknown = [c for c in controllers if not isinstance(c, str) or c not in CONTROLLERS]
    if unknown:
        raise ValidationError(f"controllers: unknown {unknown}; "
                              f"known controllers are {sorted(CONTROLLERS)}")
    if len(set(controllers)) != len(controllers):
        raise ValidationError("controllers are repeated")

    y_d = _timeseries(cfg["target"], dims.ny, "target")
    d = _timeseries(cfg["disturbance"], dims.nd, "disturbance")
    Q, R = _weights(cfg.get("weights", {}), dims)
    spec = None
    if "barrier" in cfg:
        spec = BarrierSpec(**_read_fields(
            BarrierSpec, cfg["barrier"], "barrier", z_max=partial(_vector, width=dims.nz),
            v_min=partial(_vector, width=dims.nu), v_max=partial(_vector, width=dims.nu),
            k1=_float, k2=_float))
    if "icbf" in controllers and spec is None:
        raise ValidationError("config: the icbf controller needs a barrier section")

    kwargs = {key: value for key, value in cfg.items() if key in _LOOP_OPTIONS}
    for key, width in (("y0", dims.ny), ("u0", dims.nu)):
        if key in cfg:
            kwargs[key] = _vector(cfg[key], f"config.{key}", width)
    horizon = cfg["horizon"]

    summaries = {}
    for ctrl in controllers:
        try:
            trace = simulate_closed_loop(plant, model, ctrl, y_d, d, horizon, Q=Q, R=R,
                                         spec=spec, seed=seed, **kwargs)
        except ElcontrolError as exc:
            partial_trace = getattr(exc, "trace", None)
            if partial_trace is not None and len(partial_trace):
                write_trace_csv(partial_trace, run.path(f"trace_{ctrl}.partial.csv"))
            raise
        write_trace_csv(trace, run.path(f"trace_{ctrl}.csv"))
        summaries[ctrl] = _trace_summary(model, trace, y_d)

    if cfg.get("plots"):
        _write_plot_script(run, controllers, dims.ny)

    summary = {"controllers": summaries, "horizon": horizon}
    if len(controllers) > 1:
        summary["comparison"] = {
            key: {c: summaries[c].get(key) for c in controllers}
            for key in ("tracking_rmse_total", "max_h")}
    return summary


_INLINE_SYSTEM = {"n": _int, "f": _raw, "g": _raw}


def _system_from(node, where, allow_file=True):
    system = _read(node, where, {}, {"fixture": _raw, "file": _path, **_INLINE_SYSTEM})
    sources = [k for k in ("fixture", "file", "f") if k in system]
    if len(sources) != 1 or (not allow_file and "file" in system):
        raise ValidationError(
            f"{where}: give exactly one of fixture, file, or inline f/g"
            + ("" if allow_file else " (a system file cannot point to another file)"))
    if "fixture" in system:
        name = system["fixture"]
        if name == "integrator-chain":
            return liecheck.integrator_chain(system.get("n", 3))
        if name == "noninvolutive-chain":
            pair = liecheck.noninvolutive_chain()
            if system.get("n", pair.n) != pair.n:
                raise ValidationError(f"{where}: the noninvolutive fixture has n = {pair.n}")
            return pair
        raise ValidationError(
            f"{where}.fixture must be integrator-chain or noninvolutive-chain, "
            f"got {name!r}")
    if "file" in system:
        path = system["file"]
        with open(path) as f:
            loaded = yaml.safe_load(f)
        return _system_from(loaded, path, allow_file=False)
    inline = _read(system, where, _INLINE_SYSTEM)
    n = inline["n"]
    return VectorFieldPair(compile_field(inline["f"], n), compile_field(inline["g"], n), n)


# check-linearizable's top-level keys that go to check_linearizable as they are
_CHECK_OPTIONS = {"samples": _int, "tol": _float}


def _run_check_linearizable(cfg, seed, run):
    system = _system_from(cfg["system"], "system")
    vector = partial(_vector, width=system.n)
    domain = _read(cfg["domain"], "domain", {"low": vector, "high": vector})
    low, high = domain["low"], domain["high"]
    report = check_linearizable(system, (low, high), seed=seed,
                                **{k: v for k, v in cfg.items() if k in _CHECK_OPTIONS})
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

# each command: its function, its required and its optional top-level keys
# besides `seed` and `output`, and its help line
_COMMANDS = {
    "gen-data": (_run_gen_data, {"plant": _raw, "dataset": _raw, "excitation": _raw}, {},
                 "excite a plant and record a trajectory dataset"),
    "train": (_run_train, {"dataset": _path, "dims": _raw, "train": _raw},
              {"arch": _raw, "init": _raw, "holdout": _path},
              "fit a latent-linear model to a dataset"),
    "eval": (_run_eval, {"model": _path, "dataset": _path}, {},
             "score a model on a dataset (per-channel R^2)"),
    "design-lqr": (_run_design_lqr, {"model": _path, "target": _raw}, {"weights": _raw},
                   "solve the regulator design for a saved model"),
    "simulate": (_run_simulate,
                 {"model": _path, "plant": _raw, "controllers": _raw, "target": _raw,
                  "disturbance": _raw, "horizon": _float},
                 {**_LOOP_OPTIONS, "y0": _raw, "u0": _raw, "weights": _raw, "barrier": _raw,
                  "plots": _raw},
                 "run one or more controllers closed loop"),
    "check-linearizable": (_run_check_linearizable, {"system": _raw, "domain": _raw},
                           _CHECK_OPTIONS, "sampled exact-linearizability check"),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="elcontrol",
        description="Batch runner: every command reads a YAML config and "
                    "writes reproducible outputs into a run directory.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (*_, blurb) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's global seed")
        p.add_argument("--out", default=None,
                       help="override the config's output directory")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    command, required, optional, _ = _COMMANDS[args.command]
    try:
        with open(args.config) as f:
            raw = f.read()
        cfg = yaml.safe_load(raw)
        cfg = _read({} if cfg is None else cfg, "config", required,
                    {**optional, "seed": _seed, "output": _raw})
        seed = _seed(args.seed, "--seed") if args.seed is not None else cfg.get("seed", 0)
        out = args.out if args.out is not None else cfg.get("output")
        if not isinstance(out, str):
            raise ValidationError(
                "no output directory path: set `output` in the config or pass --out")
        os.makedirs(out, exist_ok=True)
        run = _Run(out)
        with open(run.path("config.echo.yaml"), "w") as f:
            f.write(raw)
        # numpy stays quiet: a finiteness check guards every value published
        with np.errstate(all="ignore"):
            body = command(cfg, seed, run)
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
