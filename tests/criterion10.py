"""The criterion-10 CLI configs: small configs per command.

`configs(gen_out)` returns them; every command after `gen-data` reads the
dataset and model that `gen-data` writes into `gen_out`.  An entry named
`<command>+<variant>` runs `command(name)` again on another config:
`simulate+step` under a piecewise-constant disturbance with one step, so
the model's kept disturbance-only data is both reused and replaced, and
the `+every-key` entries (with `gen-data+mismatch` and
`check-linearizable+inline`) set every optional key of every section to a
value other than its default, where the plain entries leave most of them
out.  Run as a script,

    PYTHONPATH=<checkout>/src python tests/criterion10.py OUT

writes each config to `OUT/<name>.yaml` and runs the entries into
`OUT/gen` (gen-data) and `OUT/<name>` (the others).  Running two
checkouts at the same OUT path and comparing with `diff -r` checks that
their outputs are byte-identical; the same path matters because
`config.echo.yaml` and `config_sha256` hold the absolute paths.  Where the
arithmetic changed,

    python tests/criterion10.py --compare A B

checks two such output trees (moved apart after their runs) against the
1e-12 relative rule: each numeric CSV column and each numeric JSON leaf
array is compared relative to its largest magnitude in either tree, and
all other text must be equal.  It prints the worst entry of each file that
differs and of the whole tree, and exits 1 when the file sets differ, text
differs, or a relative difference is above 1e-12.
"""

import json
import pathlib
import sys

import numpy as np
import yaml

from elcontrol.cli import main as cli_main


def command(name):
    return name.partition("+")[0]


def configs(gen_out):
    dims = {"ny": 2, "nu": 2, "nd": 1, "nz": 1}
    arch = {"phi_depth": 1, "phi_hidden": 8, "psi_depth": 1, "psi_hidden": 8,
            "xi_depth": 2, "xi_hidden": 8, "core_hidden": 8}
    simulate = {
        "seed": 2, "model": str(gen_out / "plant_model.npz"),
        "plant": {"kind": "teacher", "model": str(gen_out / "plant_model.npz")},
        "controllers": ["lqr", "icbf"], "target": {"constant": [0.2, -0.1]},
        "disturbance": {"constant": [0.0]}, "horizon": 0.05,
        "control_period": 0.005, "substeps": 2,
        "barrier": {"z_max": [1.0e6], "v_min": [-5.0, -5.0],
                    "v_max": [5.0, 5.0], "k1": 10.0, "k2": 1.0,
                    "rate_weight": 0.05}}
    return {
        "gen-data": {
            "seed": 5, "plant": {"kind": "teacher", "seed": 7, "dims": dims,
                                 "arch": arch},
            "dataset": {"duration": 2.0, "step": 0.005, "fd_tol": 0.05},
            "excitation": {
                "v": {"kind": "sum-of-sines", "period": 0.1, "low": -1.0,
                      "high": 1.0, "seed": 11},
                "d": {"kind": "sum-of-sines", "period": 0.2, "low": -0.5,
                      "high": 0.5, "seed": 12}}},
        "train": {
            "seed": 1, "dataset": str(gen_out / "dataset.csv"), "dims": dims,
            "arch": arch, "init": {"seed": 4, "map_scale": 0.02},
            "train": {"epochs": 1, "batch_size": 128},
            "holdout": str(gen_out / "dataset.csv")},
        "eval": {"model": str(gen_out / "plant_model.npz"),
                 "dataset": str(gen_out / "dataset.csv")},
        "design-lqr": {"model": str(gen_out / "plant_model.npz"),
                       "target": {"y": [0.2, -0.1], "d": [0.0]},
                       "weights": {"q": 4.0}},
        "simulate": simulate,
        "simulate+step": {
            **simulate, "horizon": 0.1,
            "disturbance": {"schedule": {"times": [0.0, 0.05], "values": [[0.0], [0.2]]}}},
        "gen-data+mismatch": {
            "seed": 3, "plant": {"kind": "mismatch"},
            "dataset": {"duration": 1.0, "step": 0.005, "y0": [0.1, -0.2], "fd_tol": 0.5},
            "excitation": {
                "v": {"kind": "prbs", "period": 0.25, "low": [-1.0, -0.5],
                      "high": [1.0, 0.5], "seed": 13},
                "d": {"kind": "chirp", "period": 0.01, "low": 0.0, "high": 0.4}}},
        "train+every-key": {
            "seed": 1, "dataset": str(gen_out / "dataset.csv"), "dims": dims,
            "arch": arch, "init": {"seed": 6, "map_scale": 0.03},
            "train": {"epochs": 2, "batch_size": 64, "step_size": 0.02, "decay": 0.9,
                      "seed": 9, "val_fraction": 0.3},
            "holdout": str(gen_out / "dataset.csv")},
        "design-lqr+every-key": {
            "model": str(gen_out / "plant_model.npz"),
            "target": {"y": [0.2, -0.1], "d": [0.1], "tol": 1e-5},
            "weights": {"q": [[4.0, 0.5], [0.5, 2.0]], "r": [2.0, 0.5]}},
        "simulate+every-key": {
            **simulate, "controllers": ["lqr", "icbf", "sontag"], "horizon": 0.04,
            "control_period": 0.004, "substeps": 3, "y0": [0.05, -0.05],
            "u0": [0.1, 0.0], "noise_std": 0.01,
            "weights": {"q": [4.0, 2.0], "r": [[1.0, 0.1], [0.1, 2.0]]},
            "barrier": {**simulate["barrier"], "margin": 0.01}, "plots": True},
        "check-linearizable+inline": {
            "seed": 4, "system": {"n": 3, "f": ["y2 + sinh(y1)", "y3", "0"],
                                  "g": ["0", "0", "1"]},
            "domain": {"low": -1.0, "high": [1.0, 2.0, 0.5]}, "samples": 7, "tol": 1e-7},
        "check-linearizable": {
            "seed": 0, "system": {"fixture": "noninvolutive-chain"},
            "domain": {"low": -1.0, "high": 1.0}, "samples": 25},
    }


REL_TOL = 1e-12


def _numbers(x):
    """x as a float array, or None when it is not all numbers."""
    try:
        arr = np.asarray(x)
    except ValueError:
        return None
    return arr.astype(np.float64) if arr.dtype.kind in "fiu" else None


def _difference(label, a, b):
    """(relative difference, label, value in a, value in b) at the worst
    entry of two leaves; text that differs counts as an infinite difference."""
    x, y = _numbers(a), _numbers(b)
    if x is None or y is None or x.shape != y.shape:
        return (0.0 if a == b else np.inf), label, a, b
    if x.size == 0:
        return 0.0, label, a, b
    with np.errstate(invalid="ignore"):
        diff = np.where((x == y) | (np.isnan(x) & np.isnan(y)), 0.0, np.abs(x - y))
    mags = np.abs(np.concatenate([x.ravel(), y.ravel()]))
    scale = np.max(mags[np.isfinite(mags)], initial=0.0)
    rel = np.nan_to_num(diff, nan=np.inf) / (scale if scale > 0 else 1.0)
    worst = np.unravel_index(np.argmax(rel), rel.shape)
    return float(rel[worst]), label, float(x[worst]), float(y[worst])


def _json_leaves(a, b, label):
    """(label, a, b) per leaf: a numeric (nested) list or any other value."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            yield from _json_leaves(a[key], b[key], f"{label}.{key}".lstrip("."))
    elif (isinstance(a, list) and isinstance(b, list) and len(a) == len(b)
          and _numbers(a) is None):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_leaves(x, y, f"{label}[{i}]")
    else:
        yield label, a, b


def _csv_leaves(a, b):
    """(column name, a, b) per column of numbers, and per cell elsewhere."""
    rows_a, rows_b = ([line.split(",") for line in t.splitlines()] for t in (a, b))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b] or rows_a[:1] != rows_b[:1]:
        yield "header or shape", rows_a[:1], rows_b[:1]
        return
    for (name, *col_a), (_, *col_b) in zip(zip(*rows_a), zip(*rows_b)):
        try:
            yield name, [float(c) for c in col_a], [float(c) for c in col_b]
        except ValueError:
            yield from ((f"{name}[{i}]", x, y) for i, (x, y) in enumerate(zip(col_a, col_b)))


def compare(a, b):
    """Print where two output trees differ; True when they agree to REL_TOL."""
    a, b = pathlib.Path(a), pathlib.Path(b)
    names = [sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
             for root in (a, b)]
    if names[0] != names[1]:
        print(f"file sets differ: only in {a}: {sorted(set(names[0]) - set(names[1]))}, "
              f"only in {b}: {sorted(set(names[1]) - set(names[0]))}")
        return False
    worst = (0.0, "no file differs")
    for name in names[0]:
        raw_a, raw_b = (a / name).read_bytes(), (b / name).read_bytes()
        if raw_a == raw_b:
            continue
        if name.suffix == ".csv":
            leaves = _csv_leaves(raw_a.decode(), raw_b.decode())
        elif name.suffix == ".json":
            leaves = _json_leaves(json.loads(raw_a), json.loads(raw_b), "")
        else:
            leaves = [("bytes", "differ", "")]
        rel, label, x, y = max((_difference(*leaf) for leaf in leaves), key=lambda d: d[0])
        line = f"{name}: {label} {x!r} vs {y!r}, relative difference {rel:.3g}"
        print(line)
        worst = max(worst, (rel, line))
    print(f"worst: {worst[1]}")
    return worst[0] <= REL_TOL


def main(argv):
    if len(argv) == 3 and argv[0] == "--compare":
        return 0 if compare(argv[1], argv[2]) else 1
    if len(argv) != 1:
        print("usage: criterion10.py OUT | --compare A B", file=sys.stderr)
        return 2
    root = pathlib.Path(argv[0]).resolve()
    root.mkdir(parents=True, exist_ok=True)
    gen_out = root / "gen"
    for name, cfg in configs(gen_out).items():
        config = root / f"{name}.yaml"
        with open(config, "w") as f:
            yaml.safe_dump(cfg, f)
        out = gen_out if name == "gen-data" else root / name
        if cli_main([command(name), "--config", str(config), "--out", str(out)]) != 0:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
