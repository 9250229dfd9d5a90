"""Command line: config validation, reproducible outputs, and exit codes."""

import copy
import hashlib
import io
import json
import subprocess
import sys
import zipfile

import numpy as np
import pytest
import yaml
from numpy.lib import format as npformat

from elcontrol import cli, qpsolver
from elcontrol.cli import main
from elcontrol.control import design_lqr
from elcontrol.liecheck import MAX_STATES
from elcontrol.model import (ELModel, ModelArch, ModelDims, TrajectoryDataset, load_model,
                             read_csv, save_model, write_csv)
from elcontrol.simulate import TeacherPlant

TINY_ARCH = dict(phi_depth=1, phi_hidden=8, psi_depth=1, psi_hidden=8,
                 xi_depth=2, xi_hidden=8, core_hidden=8)
TINY_DIMS = dict(ny=2, nu=2, nd=1, nz=1)


def write_config(path, cfg):
    with open(path, "w") as f:
        yaml.safe_dump(cfg, f)
    return str(path)


def run_cli(tmp_path, command, cfg, name="config.yaml", extra=()):
    config = write_config(tmp_path / name, cfg)
    return main([command, "--config", config, *extra])


def gen_config(out, duration=2.0, kind="teacher"):
    plant = ({"kind": "teacher", "seed": 7, "dims": dict(TINY_DIMS), "arch": dict(TINY_ARCH)}
             if kind == "teacher" else {"kind": "mismatch"})
    return {
        "seed": 5,
        "output": str(out),
        "plant": plant,
        "dataset": {"duration": duration, "step": 0.005, "fd_tol": 0.05},
        "excitation": {
            "v": {"kind": "sum-of-sines", "period": 0.1, "low": -1.0, "high": 1.0,
                  "seed": 11},
            "d": {"kind": "sum-of-sines", "period": 0.2, "low": -0.5, "high": 0.5,
                  "seed": 12},
        },
    }


@pytest.fixture(scope="module")
def teacher_run(tmp_path_factory):
    """One gen-data run shared by the tests that need a dataset and a model."""
    root = tmp_path_factory.mktemp("teacher")
    out = root / "gen"
    assert main(["gen-data", "--config",
                 write_config(root / "gen.yaml", gen_config(out))]) == 0
    return out


# ---------------------------------------------------------------------------
# shared behavior: echo, hash, seed override, output dir, unknown keys

def test_run_writes_config_echo_and_hash(tmp_path):
    cfg = {"output": str(tmp_path / "run"),
           "system": {"fixture": "integrator-chain", "n": 3},
           "domain": {"low": -1.0, "high": 1.0}, "samples": 10}
    config = write_config(tmp_path / "config.yaml", cfg)
    assert main(["check-linearizable", "--config", config]) == 0
    raw = open(config).read()
    echoed = open(tmp_path / "run" / "config.echo.yaml").read()
    assert echoed == raw
    summary = json.load(open(tmp_path / "run" / "summary.json"))
    assert summary["config_sha256"] == hashlib.sha256(raw.encode()).hexdigest()
    assert summary["command"] == "check-linearizable"
    assert "config.echo.yaml" in summary["outputs"]
    assert "report.json" in summary["outputs"]


def test_seed_flag_overrides_config_seed(tmp_path):
    cfg = {"seed": 3, "output": str(tmp_path / "a"),
           "system": {"fixture": "integrator-chain"},
           "domain": {"low": -1.0, "high": 1.0}, "samples": 8}
    assert run_cli(tmp_path, "check-linearizable", cfg, extra=["--seed", "9"]) == 0
    summary = json.load(open(tmp_path / "a" / "summary.json"))
    assert summary["seed"] == 9
    report = json.load(open(tmp_path / "a" / "report.json"))
    cfg["output"] = str(tmp_path / "b")
    assert run_cli(tmp_path, "check-linearizable", cfg, name="b.yaml") == 0
    other = json.load(open(tmp_path / "b" / "report.json"))
    assert report["points"] != other["points"]


def test_out_flag_overrides_config_output(tmp_path):
    cfg = {"output": str(tmp_path / "ignored"),
           "system": {"fixture": "integrator-chain"},
           "domain": {"low": -1.0, "high": 1.0}, "samples": 5}
    assert run_cli(tmp_path, "check-linearizable", cfg,
                   extra=["--out", str(tmp_path / "chosen")]) == 0
    assert (tmp_path / "chosen" / "report.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_missing_output_dir_is_an_error(tmp_path, capsys):
    cfg = {"system": {"fixture": "integrator-chain"},
           "domain": {"low": -1.0, "high": 1.0}}
    assert run_cli(tmp_path, "check-linearizable", cfg) == 1
    assert "output" in capsys.readouterr().err


@pytest.mark.parametrize("mutate", [
    lambda cfg: cfg.update(extra_section=1),
    lambda cfg: cfg["dataset"].update(typo_key=3),
    lambda cfg: cfg["excitation"]["v"].update(amplitude=2.0),
    lambda cfg: cfg["plant"].update(model="x.npz", kind="mismatch"),
])
def test_unknown_config_keys_are_rejected(tmp_path, capsys, mutate):
    cfg = gen_config(tmp_path / "out", duration=0.0, kind="teacher")
    mutate(cfg)
    assert run_cli(tmp_path, "gen-data", cfg) == 1
    assert "unknown keys" in capsys.readouterr().err


def _valid_config(command, out, source):
    """A config `command` accepts, its input files taken from `source`."""
    model, data = str(source / "plant_model.npz"), str(source / "dataset.csv")
    if command == "gen-data":
        return gen_config(out, duration=0.0)
    if command == "train":
        return {"output": str(out), "dataset": data, "dims": dict(TINY_DIMS),
                "arch": dict(TINY_ARCH), "init": {"seed": 4}, "train": {"epochs": 0}}
    if command == "eval":
        return {"output": str(out), "model": model, "dataset": data}
    if command == "design-lqr":
        return {"output": str(out), "model": model,
                "target": {"y": [0.2, -0.1], "d": [0.0]}, "weights": {"q": 4.0}}
    if command == "simulate":
        cfg = sim_config(out, model, ["lqr"])
        cfg["disturbance"] = {"schedule": {"times": [0.0], "values": [[0.0]]}}
        return cfg
    return check_config(out, {"n": 2, "f": ["y2", "0"], "g": ["0", "1"]})


# (command, path to the mapping that gets an unknown key, section the error names)
SECTIONS = {
    **{f"{command} top level": (command, (), "config")
       for command in ("gen-data", "train", "eval", "design-lqr", "simulate",
                       "check-linearizable")},
    "plant (teacher)": ("gen-data", ("plant",), "plant"),
    "plant (mismatch)": ("gen-data", ("plant",), "plant"),
    "plant.dims": ("gen-data", ("plant", "dims"), "plant.dims"),
    "plant.arch": ("gen-data", ("plant", "arch"), "plant.arch"),
    "dataset": ("gen-data", ("dataset",), "dataset"),
    "excitation": ("gen-data", ("excitation",), "excitation"),
    "excitation.v": ("gen-data", ("excitation", "v"), "excitation.v"),
    "excitation.d": ("gen-data", ("excitation", "d"), "excitation.d"),
    "init": ("train", ("init",), "init"),
    "train": ("train", ("train",), "train"),
    "dims": ("train", ("dims",), "dims"),
    "arch": ("train", ("arch",), "arch"),
    "design-lqr target": ("design-lqr", ("target",), "target"),
    "design-lqr weights": ("design-lqr", ("weights",), "weights"),
    "simulate plant": ("simulate", ("plant",), "plant"),
    "simulate weights": ("simulate", ("weights",), "weights"),
    "barrier": ("simulate", ("barrier",), "barrier"),
    "target": ("simulate", ("target",), "target"),
    "target.schedule": ("simulate", ("target", "schedule"), "target.schedule"),
    "disturbance": ("simulate", ("disturbance",), "disturbance"),
    "disturbance.schedule": ("simulate", ("disturbance", "schedule"),
                             "disturbance.schedule"),
    "system": ("check-linearizable", ("system",), "system"),
    "domain": ("check-linearizable", ("domain",), "domain"),
}


@pytest.mark.parametrize("case", SECTIONS)
def test_unknown_keys_in_every_section_are_one_error_line(tmp_path, teacher_run, capsys,
                                                          case):
    command, path, section = SECTIONS[case]
    cfg = copy.deepcopy(_valid_config(command, tmp_path / "run", teacher_run))
    if case == "plant (mismatch)":
        cfg["plant"] = {"kind": "mismatch"}
    node = cfg
    for key in path:
        node = node[key]
    node["typo_key"] = 1
    assert run_cli(tmp_path, command, cfg) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {section}: unknown keys"), err


@pytest.mark.parametrize("command,path,value", [
    ("gen-data", ("plant", "arch", "phi_depth"), 0),
    ("train", ("arch", "core_hidden"), -2),
], ids=["gen-data zero depth", "train negative width"])
def test_non_positive_arch_sizes_are_one_error_line(tmp_path, teacher_run, capsys,
                                                    command, path, value):
    cfg = copy.deepcopy(_valid_config(command, tmp_path / "run", teacher_run))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert run_cli(tmp_path, command, cfg) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path[-1]} must be"), err


def test_malformed_yaml_is_a_clean_error(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text("output: [unclosed\n")
    assert main(["gen-data", "--config", str(config)]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_config_file_is_a_clean_error(tmp_path, capsys):
    assert main(["gen-data", "--config", str(tmp_path / "nope.yaml")]) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gen-data

def test_gen_data_dataset_round_trips(teacher_run):
    ds = read_csv(teacher_run / "dataset.csv")
    assert len(ds) == 401
    assert ds.v.shape == (401, 2) and ds.d.shape == (401, 1)
    summary = json.load(open(teacher_run / "summary.json"))
    assert summary["rows"] == 401
    teacher = load_model(teacher_run / "plant_model.npz")
    pred = teacher.predict_ydot(ds.v, ds.y, ds.d, ds.d_dot)
    assert np.allclose(pred, ds.y_dot, atol=1e-9)


def test_gen_data_is_byte_identical_across_reruns(tmp_path):
    config = write_config(tmp_path / "config.yaml", gen_config(tmp_path / "a"))
    assert main(["gen-data", "--config", config]) == 0
    assert main(["gen-data", "--config", config, "--out", str(tmp_path / "b")]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == ["config.echo.yaml", "dataset.csv", "dataset.csv.meta.json",
                     "plant_model.npz", "summary.json"]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes(), name


def test_gen_data_accepts_prbs_at_the_default_fd_tol(tmp_path):
    """A chip edge is a real jump in y_dot, which the difference check of
    the written dataset must not take for an inconsistent derivative."""
    cfg = gen_config(tmp_path / "out")
    del cfg["dataset"]["fd_tol"]
    cfg["excitation"]["v"] = {"kind": "prbs", "period": 0.05, "low": -1.0, "high": 1.0,
                              "seed": 13}
    assert run_cli(tmp_path, "gen-data", cfg) == 0
    assert len(read_csv(tmp_path / "out" / "dataset.csv")) == 401


def test_gen_data_step_count_overflow_is_one_error_line(tmp_path, capsys):
    cfg = gen_config(tmp_path / "out")
    cfg["dataset"].update(duration=1e300, step=1e-300)
    assert run_cli(tmp_path, "gen-data", cfg) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "step count" in err[0], err


def _over_the_cap(tmp_path, source, case):
    """(command, config) asking for more than MAX_COUNT rows, chips, ticks,
    integration steps, samples or model floats; the finite ones would
    allocate or run that many without the cap."""
    gen = gen_config(tmp_path / "run")
    prbs = {"kind": "prbs", "period": 1e-3, "low": -1.0, "high": 1.0}
    if case == "infinite prbs chip count":
        gen["dataset"]["duration"] = 1e300
        gen["excitation"]["v"] = {**prbs, "period": 1e-300}
    elif case == "huge prbs chip count":
        gen["dataset"]["duration"] = 1e12
        gen["excitation"]["v"] = prbs
    elif case == "huge step count":
        gen["dataset"].update(duration=1e6, step=1e-6)
    elif case == "huge teacher dims":
        gen["plant"]["dims"]["ny"] = 10**6
    elif case == "huge train arch":
        cfg = _valid_config("train", tmp_path / "run", source)
        cfg["arch"]["phi_hidden"] = 10**6
        return "train", cfg
    elif case == "huge sample count":
        return "check-linearizable", check_config(
            tmp_path / "run", {"fixture": "integrator-chain"}) | {"samples": 10**8}
    elif case == "huge integration step count":
        return "simulate", sim_config(tmp_path / "run", str(source / "plant_model.npz"),
                                      ["lqr"]) | {"substeps": 10**9}
    else:
        return "simulate", sim_config(tmp_path / "run", str(source / "plant_model.npz"),
                                      ["lqr"]) | {"horizon": 1e300}
    return "gen-data", gen


@pytest.mark.parametrize("case", ["infinite prbs chip count", "huge prbs chip count",
                                  "huge step count", "huge tick count", "huge sample count",
                                  "huge teacher dims", "huge train arch",
                                  "huge integration step count"])
def test_counts_over_the_cap_are_one_error_line(tmp_path, teacher_run, capsys, case):
    command, cfg = _over_the_cap(tmp_path, teacher_run, case)
    assert run_cli(tmp_path, command, cfg) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "count" in err[0], err


def test_gen_data_zero_duration_writes_header_only(tmp_path):
    cfg = gen_config(tmp_path / "out", duration=0.0, kind="mismatch")
    assert run_cli(tmp_path, "gen-data", cfg) == 0
    lines = (tmp_path / "out" / "dataset.csv").read_text().splitlines()
    assert lines == ["t,v1,v2,d1,y1,y2,z1,ydot1,ydot2,ddot1"]
    assert json.load(open(tmp_path / "out" / "summary.json"))["rows"] == 0


# ---------------------------------------------------------------------------
# train / eval

def test_train_epochs_zero_serializes_the_initial_model(tmp_path, teacher_run):
    cfg = {"seed": 1, "output": str(tmp_path / "run"),
           "dataset": str(teacher_run / "dataset.csv"),
           "dims": TINY_DIMS, "arch": TINY_ARCH,
           "init": {"seed": 4, "map_scale": 0.02},
           "train": {"epochs": 0}}
    assert run_cli(tmp_path, "train", cfg) == 0
    # the serialized model must equal an identically seeded fresh one, bit for bit
    ds = read_csv(teacher_run / "dataset.csv")
    fresh = ELModel.for_training(ModelDims(**TINY_DIMS), ds, ModelArch(**TINY_ARCH),
                                 seed=4, map_scale=0.02)
    save_model(fresh, tmp_path / "fresh.npz")
    assert (tmp_path / "run" / "model.npz").read_bytes() \
        == (tmp_path / "fresh.npz").read_bytes()
    # zero epochs leave no loss entries, so no val column either
    assert (tmp_path / "run" / "history.csv").read_text() == "epoch,train_loss\n"
    reloaded = load_model(tmp_path / "run" / "model.npz")
    assert np.array_equal(reloaded.predict_ydot(ds.v, ds.y, ds.d, ds.d_dot),
                          fresh.predict_ydot(ds.v, ds.y, ds.d, ds.d_dot))


def test_train_writes_history_and_r2_table(tmp_path, teacher_run):
    cfg = {"seed": 1, "output": str(tmp_path / "run"),
           "dataset": str(teacher_run / "dataset.csv"),
           "dims": TINY_DIMS, "arch": TINY_ARCH,
           "init": {"seed": 4, "map_scale": 0.02},
           "train": {"epochs": 2, "batch_size": 64, "step_size": 0.01},
           "holdout": str(teacher_run / "dataset.csv")}
    assert run_cli(tmp_path, "train", cfg) == 0
    lines = (tmp_path / "run" / "history.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    assert len(lines) == 3
    losses = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(np.isfinite(losses))
    table = (tmp_path / "run" / "r2.csv").read_text().splitlines()
    assert table[0] == "channel,r2"
    assert [row.split(",")[0] for row in table[1:]] == ["ydot1", "ydot2", "z1"]
    summary = json.load(open(tmp_path / "run" / "summary.json"))
    assert summary["epochs"] == 2
    assert set(summary["r2"]) == {"ydot1", "ydot2", "z1"}
    assert np.isfinite(summary["r2_mean"])


def test_train_corrupted_dataset_is_an_error(tmp_path, teacher_run, capsys):
    lines = (teacher_run / "dataset.csv").read_text().splitlines()
    parts = lines[3].split(",")
    parts[0] = "0.5"     # break the uniform time grid
    lines[3] = ",".join(parts)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    cfg = {"output": str(tmp_path / "run"), "dataset": str(bad),
           "dims": TINY_DIMS, "train": {"epochs": 1}}
    assert run_cli(tmp_path, "train", cfg) == 1
    assert "error:" in capsys.readouterr().err


def test_eval_scores_the_generating_model_perfectly(tmp_path, teacher_run):
    cfg = {"output": str(tmp_path / "run"),
           "model": str(teacher_run / "plant_model.npz"),
           "dataset": str(teacher_run / "dataset.csv")}
    assert run_cli(tmp_path, "eval", cfg) == 0
    summary = json.load(open(tmp_path / "run" / "summary.json"))
    for value in summary["r2"].values():
        assert value > 1.0 - 1e-9
    assert summary["r2_mean"] > 1.0 - 1e-9


def test_eval_missing_model_is_a_clean_error(tmp_path, teacher_run, capsys):
    cfg = {"output": str(tmp_path / "run"),
           "model": str(tmp_path / "missing.npz"),
           "dataset": str(teacher_run / "dataset.csv")}
    assert run_cli(tmp_path, "eval", cfg) == 1
    assert "error:" in capsys.readouterr().err


def _bad_model_file(path, source, case):
    if case == "not a zip archive":
        with open(path, "wb") as f:
            np.save(f, np.zeros(3))
    elif case == "truncated archive":
        data = open(source, "rb").read()
        open(path, "wb").write(data[:len(data) // 2])
    elif case in ("unknown arch key", "non-integer dims", "huge dims", "unknown metadata key",
                  "arch missing a field"):
        with np.load(source) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        if case == "unknown arch key":
            meta["arch"]["phi_width"] = 3
        elif case == "unknown metadata key":
            meta["units"] = "si"
        elif case == "arch missing a field":
            del meta["arch"]["xi_depth"]    # its value is the default
        else:
            meta["dims"][0] = "2" if case == "non-integer dims" else 10**6
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with open(path, "wb") as f:
            np.savez(f, **arrays)
    elif case in ("scaler std too wide", "zero scaler std", "string parameter",
                  "float32 parameter", "float16 scaler"):
        with np.load(source) as data:
            arrays = {k: data[k] for k in data.files}
        std = arrays["scaler.y.std"]
        key = sorted(k for k in arrays if k.startswith("param."))[0]
        if case == "scaler std too wide":
            arrays["scaler.y.std"] = np.concatenate([std, std])
        elif case == "zero scaler std":
            arrays["scaler.y.std"] = np.zeros_like(std)
        elif case == "float32 parameter":
            arrays[key] = arrays[key].astype(np.float32)
        elif case == "float16 scaler":
            arrays["scaler.y.std"] = std.astype(np.float16)
        else:
            arrays[key] = np.full(arrays[key].shape, "x")
        with open(path, "wb") as f:
            np.savez(f, **arrays)
    else:
        model = load_model(source)
        key = sorted(model.params)[0]
        model.params[key] = np.full_like(model.params[key], np.nan)
        save_model(model, path)


@pytest.mark.parametrize("case", ["not a zip archive", "truncated archive", "unknown arch key",
                                  "non-integer dims", "huge dims", "nan parameter",
                                  "scaler std too wide", "zero scaler std", "string parameter",
                                  "float32 parameter", "float16 scaler", "unknown metadata key",
                                  "arch missing a field"])
def test_eval_rejects_bad_model_files(tmp_path, teacher_run, capsys, case):
    bad = tmp_path / "bad.npz"
    _bad_model_file(bad, teacher_run / "plant_model.npz", case)
    cfg = {"output": str(tmp_path / "run"), "model": str(bad),
           "dataset": str(teacher_run / "dataset.csv")}
    assert run_cli(tmp_path, "eval", cfg) == 1
    err = capsys.readouterr().err.splitlines()
    # rejected at load, so the line names the file
    assert len(err) == 1 and err[0].startswith("error:") and str(bad) in err[0]


# ---------------------------------------------------------------------------
# design-lqr / simulate

def test_design_lqr_matches_library_design(tmp_path, teacher_run):
    model_path = str(teacher_run / "plant_model.npz")
    cfg = {"output": str(tmp_path / "run"), "model": model_path,
           "target": {"y": [0.2, -0.1], "d": [0.0]},
           "weights": {"q": 4.0, "r": [1.0, 1.0]}}
    assert run_cli(tmp_path, "design-lqr", cfg) == 0
    design = json.load(open(tmp_path / "run" / "design.json"))
    model = load_model(model_path)
    expected = design_lqr(model, [0.2, -0.1], [0.0], 4.0 * np.eye(2), np.eye(2))
    assert np.allclose(design["K"], expected.K, atol=1e-10)
    assert np.allclose(design["x_d"], expected.x_d, atol=1e-10)
    assert max(design["closed_loop_eigs_real"]) < 0.0
    summary = json.load(open(tmp_path / "run" / "summary.json"))
    assert summary["spectral_abscissa"] < 0.0


def sim_config(out, model_path, controllers):
    return {
        "seed": 2, "output": str(out), "model": model_path,
        "plant": {"kind": "teacher", "model": model_path},
        "controllers": controllers,
        "target": {"schedule": {"times": [0.0, 0.05],
                                "values": [[0.2, -0.1], [0.1, 0.0]]}},
        "disturbance": {"constant": [0.0]},
        "horizon": 0.1, "control_period": 0.005, "substeps": 2,
        "weights": {"q": 4.0},
        "barrier": {"z_max": [1.0e6], "v_min": [-5.0, -5.0], "v_max": [5.0, 5.0],
                    "k1": 10.0, "k2": 1.0, "rate_weight": 0.05},
        "plots": True,
    }


def test_simulate_paired_run_emits_traces_and_comparison(tmp_path, teacher_run):
    out = tmp_path / "run"
    cfg = sim_config(out, str(teacher_run / "plant_model.npz"), ["lqr", "icbf"])
    assert run_cli(tmp_path, "simulate", cfg) == 0
    for ctrl in ("lqr", "icbf"):
        table = np.loadtxt(out / f"trace_{ctrl}.csv", delimiter=",", skiprows=1)
        assert table.shape[0] == 20           # horizon / control_period ticks
        assert np.all(np.isfinite(table))
    summary = json.load(open(out / "summary.json"))
    assert set(summary["comparison"]["max_h"]) == {"lqr", "icbf"}
    for ctrl in ("lqr", "icbf"):
        per = summary["controllers"][ctrl]
        assert per["ticks"] == 20
        assert len(per["tracking_rmse"]) == 2
        assert per["max_h"] < 0.0             # wide barrier, never active
    script = (out / "plot.gp").read_text()
    assert "trace_lqr.csv" in script and "trace_icbf.csv" in script


@pytest.mark.parametrize("copy, loads", [(False, 1), (True, 2)])
def test_simulate_loads_a_plant_at_the_model_path_once(tmp_path, teacher_run, monkeypatch,
                                                       copy, loads):
    model_path = teacher_run / "plant_model.npz"
    plant_path = tmp_path / "copy.npz" if copy else model_path
    if copy:
        plant_path.write_bytes(model_path.read_bytes())
    cfg = sim_config(tmp_path / "run", str(model_path), ["lqr"])
    cfg["plant"]["model"] = str(plant_path)
    calls = []
    monkeypatch.setattr(cli, "load_model", lambda path: calls.append(path) or load_model(path))
    assert run_cli(tmp_path, "simulate", cfg) == 0
    assert len(calls) == loads


def test_simulate_is_byte_identical_across_reruns(tmp_path, teacher_run):
    config = write_config(tmp_path / "config.yaml", sim_config(
        tmp_path / "a", str(teacher_run / "plant_model.npz"), ["sontag"]))
    assert main(["simulate", "--config", config]) == 0
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "b")]) == 0
    for name in ("trace_sontag.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes(), name


def test_simulate_icbf_without_barrier_is_an_error(tmp_path, teacher_run, capsys):
    cfg = sim_config(tmp_path / "run", str(teacher_run / "plant_model.npz"), ["icbf"])
    del cfg["barrier"]
    assert run_cli(tmp_path, "simulate", cfg) == 1
    assert "barrier" in capsys.readouterr().err


def test_simulate_qp_failure_is_an_error_with_partial_trace(tmp_path, teacher_run,
                                                            capsys, monkeypatch):
    # from the third QP on, the solver's KKT self-check fails
    calls = []
    real = qpsolver.kkt_residual

    def failing(problem, x, mu):
        calls.append(None)
        return np.inf if len(calls) >= 3 else real(problem, x, mu)

    monkeypatch.setattr(qpsolver, "kkt_residual", failing)
    out = tmp_path / "run"
    cfg = sim_config(out, str(teacher_run / "plant_model.npz"), ["icbf"])
    assert run_cli(tmp_path, "simulate", cfg) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "KKT" in err[0]
    partial = np.loadtxt(out / "trace_icbf.partial.csv", delimiter=",", skiprows=1, ndmin=2)
    assert partial.shape[0] == 2


def test_simulate_infeasible_mid_run_is_an_error_with_partial_trace(
        tmp_path, teacher_run, capsys, qp_infeasible_from_third_call):
    out = tmp_path / "run"
    cfg = sim_config(out, str(teacher_run / "plant_model.npz"), ["icbf"])
    assert run_cli(tmp_path, "simulate", cfg) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "infeasible" in err[0]
    partial = np.loadtxt(out / "trace_icbf.partial.csv", delimiter=",", skiprows=1, ndmin=2)
    assert partial.shape[0] == 2


def run_cli_subprocess(*argv):
    """The CLI in a subprocess, so numpy warnings on stderr count; returns
    its stderr lines after checking it exited 1."""
    proc = subprocess.run([sys.executable, "-m", "elcontrol.cli", *argv],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    return proc.stderr.splitlines()


# headers the writer never writes: the inputs swapped or duplicated, the last
# column named t
HEADERS = {"header v2,v1": {"v1": "v2", "v2": "v1"}, "header v1,v1": {"v2": "v1"},
           "header t,...,t": {"ddot1": "t"}}


@pytest.mark.parametrize("case", ["sidecar not json", "sidecar list", "fd_tol string",
                                  "fd_tol nan", "fd_tol negative", "fd_tol missing",
                                  "header only", *HEADERS, "sidecar unknown key",
                                  "sidecar period string"])
def test_bad_dataset_files_are_one_error_line_naming_them(tmp_path, teacher_run, case):
    csv = tmp_path / "data.csv"
    lines = (teacher_run / "dataset.csv").read_text().splitlines(keepends=True)
    if case in HEADERS:
        names = lines[0].strip().split(",")
        assert names[-1] == "ddot1"
        lines[0] = ",".join(HEADERS[case].get(name, name) for name in names) + "\n"
    csv.write_text(lines[0] if case == "header only" else "".join(lines))
    meta = json.loads((teacher_run / "dataset.csv.meta.json").read_text())
    sidecar = {"sidecar not json": "{", "sidecar list": json.dumps([meta]),
               "fd_tol string": json.dumps({**meta, "fd_tol": "abc"}),
               "fd_tol nan": json.dumps({**meta, "fd_tol": float("nan")}),
               "fd_tol negative": json.dumps({**meta, "fd_tol": -1}),
               "fd_tol missing": json.dumps({k: v for k, v in meta.items() if k != "fd_tol"}),
               "sidecar unknown key": json.dumps({**meta, "bogus": 1}),
               "sidecar period string": json.dumps({**meta, "period": "x"})}
    (tmp_path / "data.csv.meta.json").write_text(sidecar.get(case, json.dumps(meta)))
    cfg = {"output": str(tmp_path / "run"), "model": str(teacher_run / "plant_model.npz"),
           "dataset": str(csv)}
    err = run_cli_subprocess("eval", "--config", write_config(tmp_path / "c.yaml", cfg))
    named = f"{csv}.meta.json" if case.startswith(("sidecar", "fd_tol")) else csv
    assert len(err) == 1 and err[0].startswith(f"error: {named}: "), err


def test_entry_claiming_2_40_floats_is_one_error_line_before_any_allocation(tmp_path,
                                                                            teacher_run):
    # the command runs with its address space capped at 4 GiB, so a reader
    # that sizes its array from this header fails instead of allocating 8 TiB
    with np.load(teacher_run / "plant_model.npz") as data:
        arrays = {k: data[k] for k in data.files}
    huge = sorted(k for k in arrays if k.startswith("param."))[0]
    bad = tmp_path / "huge.npz"
    with zipfile.ZipFile(bad, "w") as zf:
        for name, arr in arrays.items():
            buf = io.BytesIO()
            if name == huge:
                npformat.write_array_header_1_0(
                    buf, {"descr": "<f8", "fortran_order": False, "shape": (2 ** 40,)})
                buf.write(arr.tobytes())
            else:
                npformat.write_array(buf, arr)
            zf.writestr(f"{name}.npy", buf.getvalue())
    config = write_config(tmp_path / "c.yaml", {
        "output": str(tmp_path / "run"), "model": str(bad),
        "dataset": str(teacher_run / "dataset.csv")})
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 ** 32, 2 ** 32)); "
            "from elcontrol.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", code, "eval", "--config", config],
                          capture_output=True, text=True, timeout=300)
    err = proc.stderr.splitlines()
    assert proc.returncode == 1 and len(err) == 1 and err[0].startswith("error:"), err
    assert str(bad) in err[0]


def test_simulate_non_finite_tick_is_one_error_line_with_finite_partial_trace(tmp_path):
    # a far target drives Psi into overflow: v turns non-finite mid-run
    model_path = str(tmp_path / "model.npz")
    save_model(ELModel.random(ModelDims(3, 3, 2, 2), seed=0), model_path)
    out = tmp_path / "run"
    config = write_config(tmp_path / "config.yaml", {
        "output": str(out), "model": model_path,
        "plant": {"kind": "teacher", "model": model_path}, "controllers": ["lqr"],
        "target": {"constant": [40.0, 40.0, 40.0]}, "disturbance": {"constant": [0.0, 0.0]},
        "horizon": 1.0, "substeps": 2, "weights": {"q": 9.0}})
    err = run_cli_subprocess("simulate", "--config", config)
    assert len(err) == 1 and err[0].startswith("error:") and "non-finite" in err[0], err
    partial = np.loadtxt(out / "trace_lqr.partial.csv", delimiter=",", skiprows=1, ndmin=2)
    assert partial.shape[0] > 0 and np.all(np.isfinite(partial))


@pytest.mark.parametrize("command", ["design-lqr", "simulate"])
def test_overflowing_disturbance_is_one_error_line(tmp_path, command):
    # at d = (1e6, -1e6) the core and W(d) overflow to NaN: the steady
    # target's residual is NaN, and so would be the state map's inverse
    model_path = str(tmp_path / "model.npz")
    save_model(ELModel.random(ModelDims(3, 3, 2, 2), seed=0), model_path)
    cfg = {"output": str(tmp_path / "run"), "model": model_path,
           "target": {"y": [0.1, 0.0, 0.0], "d": [1e6, -1e6]}}
    if command == "simulate":
        cfg = {"output": str(tmp_path / "run"), "model": model_path,
               "plant": {"kind": "teacher", "model": model_path}, "controllers": ["icbf"],
               "u0": [0.0, 0.0, 0.0], "target": {"constant": [0.1, 0.0, 0.0]},
               "disturbance": {"constant": [1e6, -1e6]}, "horizon": 0.01,
               "barrier": {"z_max": [5.0, 5.0], "v_min": -2.0, "v_max": 2.0}}
    err = run_cli_subprocess(command, "--config", write_config(tmp_path / "c.yaml", cfg))
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert not (tmp_path / "run" / "design.json").exists()


def test_simulate_leaving_the_safety_box_is_one_error_line_with_partial_trace(
        tmp_path, capsys, monkeypatch):
    # the plant drifts 6.5 per 1 ms tick; the box is 10x the +-5 operating
    # range, so the tick at y = 52 stops the run after 8 rows
    model_path = str(tmp_path / "model.npz")
    save_model(ELModel.random(ModelDims(3, 3, 2, 2), seed=0, map_scale=0.01), model_path)
    monkeypatch.setattr(TeacherPlant, "derivative",
                        lambda self, y, v, d, d_dot=None: np.full(3, 6500.0))
    out = tmp_path / "run"
    cfg = {"output": str(out), "model": model_path,
           "plant": {"kind": "teacher", "model": model_path}, "controllers": ["lqr"],
           "target": {"constant": [0.0, 0.0, 0.0]}, "disturbance": {"constant": [0.0, 0.0]},
           "horizon": 0.05, "substeps": 2}
    assert run_cli(tmp_path, "simulate", cfg) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "safety box" in err[0], err
    partial = np.loadtxt(out / "trace_lqr.partial.csv", delimiter=",", skiprows=1, ndmin=2)
    assert partial.shape[0] == 8 and np.all(np.isfinite(partial))
    assert not (out / "trace_lqr.csv").exists()


def test_eval_overflowing_dataset_is_one_error_line(tmp_path, teacher_run):
    ds = read_csv(teacher_run / "dataset.csv")
    big = TrajectoryDataset(ds.t, ds.v, ds.d, 1e3 * ds.y, ds.z, d_dot=ds.d_dot,
                            y_dot=1e3 * ds.y_dot, fd_tol=ds.fd_tol)
    write_csv(big, tmp_path / "big.csv")
    config = write_config(tmp_path / "config.yaml", {
        "output": str(tmp_path / "run"), "model": str(teacher_run / "plant_model.npz"),
        "dataset": str(tmp_path / "big.csv")})
    err = run_cli_subprocess("eval", "--config", config)
    assert len(err) == 1 and err[0].startswith("error:"), err


@pytest.mark.parametrize("controllers", [["lqr", "bogus"], [[1]]])
def test_simulate_checks_controller_names_before_running(tmp_path, teacher_run, capsys,
                                                         controllers):
    out = tmp_path / "run"
    cfg = sim_config(out, str(teacher_run / "plant_model.npz"), controllers)
    assert run_cli(tmp_path, "simulate", cfg) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "controller" in err[0]
    assert not list(out.glob("trace_*"))


def _non_numeric_dataset(tmp_path, source, column=1, cell="abc"):
    lines = (source / "dataset.csv").read_text().splitlines()
    parts = lines[3].split(",")
    parts[column] = cell
    lines[3] = ",".join(parts)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    return str(bad)


def _malformed_value(tmp_path, source, case):
    """(command, config) with one malformed value."""
    model = str(source / "plant_model.npz")
    sim = sim_config(tmp_path / "run", model, ["lqr"])
    if case == "non-numeric weight":
        sim["weights"] = {"q": "abc"}
    elif case == "non-numeric schedule value":
        sim["target"]["schedule"]["values"][1] = ["x", 0.0]
    elif case == "nan horizon":
        sim["horizon"] = float("nan")
    elif case == "numeric output":
        sim["output"] = 5
    elif case == "nan target":
        sim["target"] = {"constant": [float("nan"), 0.0]}
    elif case == "inf weight":
        sim["weights"] = {"q": [1.0, float("inf")]}
    elif case == "nan y0":
        sim["y0"] = [0.1, float("nan")]
    elif case == "negative seed":
        sim["seed"] = -1
    elif case == "negative map_scale":
        return "train", {"output": str(tmp_path / "run"), "dims": TINY_DIMS,
                         "dataset": str(source / "dataset.csv"), "init": {"map_scale": -0.5},
                         "train": {"epochs": 0}}
    elif case == "dims unlike the dataset's":
        return "train", {"output": str(tmp_path / "run"), "dataset": str(source / "dataset.csv"),
                         "dims": {**TINY_DIMS, "ny": 3}, "train": {"epochs": 0}}
    elif case == "zero step":
        cfg = gen_config(tmp_path / "run")
        cfg["dataset"]["step"] = 0.0
        return "gen-data", cfg
    elif case == "non-uniform time grid":
        return "train", {"output": str(tmp_path / "run"), "dims": TINY_DIMS,
                         "dataset": _non_numeric_dataset(tmp_path, source, 0, "0.5"),
                         "train": {"epochs": 1}}
    elif case == "non-string holdout":
        return "train", {"output": str(tmp_path / "run"), "dims": TINY_DIMS,
                         "dataset": str(source / "dataset.csv"),
                         "holdout": [str(source / "dataset.csv")], "train": {"epochs": 1}}
    elif case == "non-numeric csv cell (eval)":
        return "eval", {"output": str(tmp_path / "run"), "model": model,
                        "dataset": _non_numeric_dataset(tmp_path, source)}
    else:
        return "train", {"output": str(tmp_path / "run"), "dims": TINY_DIMS,
                         "dataset": _non_numeric_dataset(tmp_path, source),
                         "train": {"epochs": 1}}
    return "simulate", sim


# the key each non-finite case's error line must name
NAMED_KEY = {"nan target": "target", "inf weight": "weights.q", "nan y0": "y0",
             "non-string holdout": "holdout", "negative seed": "seed",
             "negative map_scale": "map_scale"}


@pytest.mark.parametrize("case", ["non-numeric weight", "non-numeric schedule value",
                                  "nan horizon", "numeric output", "zero step",
                                  "non-numeric csv cell (eval)",
                                  "non-numeric csv cell (train)", "non-uniform time grid",
                                  "dims unlike the dataset's", *NAMED_KEY])
def test_malformed_config_values_are_one_error_line(tmp_path, teacher_run, capsys, case):
    command, cfg = _malformed_value(tmp_path, teacher_run, case)
    assert run_cli(tmp_path, command, cfg) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert NAMED_KEY.get(case, "") in err[0]


def test_simulate_zero_horizon_compares_empty_traces(tmp_path, teacher_run):
    cfg = sim_config(tmp_path / "run", str(teacher_run / "plant_model.npz"), ["lqr", "icbf"])
    assert run_cli(tmp_path, "simulate", {**cfg, "horizon": 0.0}) == 0
    summary = json.load(open(tmp_path / "run" / "summary.json"))
    assert summary["comparison"]["tracking_rmse_total"] == {"lqr": None, "icbf": None}


def test_null_initial_state_means_not_given(tmp_path, teacher_run):
    model = str(teacher_run / "plant_model.npz")
    traces = []
    for name, extra in (("omitted", {}), ("null", {"y0": None, "u0": None})):
        cfg = {**sim_config(tmp_path / name, model, ["icbf"]), **extra}
        assert run_cli(tmp_path, "simulate", cfg, name=f"{name}.yaml") == 0
        traces.append((tmp_path / name / "trace_icbf.csv").read_bytes())
    assert traces[0] == traces[1]


@pytest.mark.parametrize("case", ["missing holdout", "narrow holdout", "narrow dataset",
                                  "narrow eval dataset"])
def test_dataset_errors_name_the_file_before_training(tmp_path, teacher_run, capsys, case):
    # "narrow": one input channel where the model has two
    data, bad = str(teacher_run / "dataset.csv"), str(tmp_path / "narrow.csv")
    ds = read_csv(data)
    write_csv(TrajectoryDataset(ds.t, ds.v[:, :1], ds.d, ds.y, ds.z, d_dot=ds.d_dot,
                                y_dot=ds.y_dot, fd_tol=ds.fd_tol), bad)
    cfg = {"output": str(tmp_path / "run"), "dims": TINY_DIMS, "dataset": data,
           "holdout": bad, "train": {"epochs": 1}}
    if case == "missing holdout":
        cfg["holdout"] = bad = str(tmp_path / "missing.csv")
    elif case == "narrow dataset":
        cfg = {**cfg, "dataset": bad, "holdout": data}
    command = "eval" if case == "narrow eval dataset" else "train"
    if command == "eval":
        cfg = {"output": str(tmp_path / "run"), "dataset": bad,
               "model": str(teacher_run / "plant_model.npz")}
    assert run_cli(tmp_path, command, cfg) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and bad in err[0]
    assert not (tmp_path / "run" / "model.npz").exists()


def test_null_holdout_means_not_given(tmp_path, teacher_run):
    cfg = {"output": str(tmp_path / "run"), "dims": TINY_DIMS, "holdout": None,
           "dataset": str(teacher_run / "dataset.csv"), "train": {"epochs": 0}}
    assert run_cli(tmp_path, "train", cfg) == 0
    summary = json.load(open(tmp_path / "run" / "summary.json"))
    assert "r2" not in summary and not (tmp_path / "run" / "r2.csv").exists()


# ---------------------------------------------------------------------------
# check-linearizable

def check_config(out, system):
    return {"seed": 0, "output": str(out), "system": system,
            "domain": {"low": -1.0, "high": 1.0}, "samples": 15, "tol": 1e-6}


def test_check_fixture_verdicts(tmp_path):
    cfg = check_config(tmp_path / "pass", {"fixture": "integrator-chain", "n": 3})
    assert run_cli(tmp_path, "check-linearizable", cfg, name="a.yaml") == 0
    report = json.load(open(tmp_path / "pass" / "report.json"))
    assert report["verdict"] == "pass"
    assert report["samples"] == 15

    cfg = check_config(tmp_path / "fail", {"fixture": "noninvolutive-chain"})
    assert run_cli(tmp_path, "check-linearizable", cfg, name="b.yaml") == 0
    report = json.load(open(tmp_path / "fail" / "report.json"))
    assert report["verdict"] == "fail-involutive"
    assert report["max_involutivity_residual"] > 10.0 * report["tol"]


def test_check_at_the_state_cap(tmp_path):
    n = MAX_STATES
    system = {"n": n, "f": [f"y{i + 1} + sinh(y1)*y{i}" for i in range(1, n)] + ["-y1*y2"],
              "g": ["0"] * (n - 1) + ["1 + square(y1)"]}
    cfg = {**check_config(tmp_path / "run", system), "samples": 2}
    assert run_cli(tmp_path, "check-linearizable", cfg) == 0
    report = json.load(open(tmp_path / "run" / "report.json"))
    assert (report["samples"], report["verdict"]) == (2, "pass")


def test_check_reads_expression_file(tmp_path):
    system_file = tmp_path / "system.yaml"
    write_config(system_file, {"n": 3,
                               "f": ["y2", "y3", "0"],
                               "g": ["0", "0", "1"]})
    cfg = check_config(tmp_path / "run", {"file": str(system_file)})
    assert run_cli(tmp_path, "check-linearizable", cfg) == 0
    report = json.load(open(tmp_path / "run" / "report.json"))
    assert report["verdict"] == "pass"


def test_check_bad_expression_file_is_an_error(tmp_path, capsys):
    system_file = tmp_path / "system.yaml"
    write_config(system_file, {"n": 2, "f": ["y1 / y2", "0"], "g": ["0", "1"]})
    cfg = check_config(tmp_path / "run", {"file": str(system_file)})
    assert run_cli(tmp_path, "check-linearizable", cfg) == 1
    assert "error:" in capsys.readouterr().err


def test_check_a_later_non_finite_sample_is_one_error_line(tmp_path):
    # y1 > 0 at seed 0's first point and y1 < 0 at its second, so the field
    # turns non-finite in a replayed sample, which must ignore numpy's
    # warnings as the first sample's graph does
    config = write_config(tmp_path / "config.yaml", check_config(
        tmp_path / "run", {"n": 2, "f": ["log(y1)", "y1"], "g": ["0", "1"]}))
    err = run_cli_subprocess("check-linearizable", "--config", config)
    assert err == ["error: vector field evaluation produced non-finite entries"], err


@pytest.mark.parametrize("f", [
    5,                                              # not a list
    [1, 2, 3, 4],                                   # numbers, not expressions
    [None, "y3", "y4", "0"],                        # an empty entry
    ["y1**99999999", "y3", "y4", "0"],              # 10^8 products
    ["exp(exp(exp(y1*1000)))", "y3", "y4", "0"],    # overflows to inf
    ["-" * 5000 + "y1", "y3", "y4", "0"],           # too deep for the parser
    ["-" * 990 + "y1", "y3", "y4", "0"],            # parses, too deep to evaluate
    ["y" + "1" * 5000, "y3", "y4", "0"],            # a name past int()'s digit limit
], ids=["number", "numeric entries", "null entry", "huge exponent", "overflow",
        "deep parse", "deep nesting", "long name"])
def test_check_faults_are_one_error_line(tmp_path, f):
    # a subprocess, so numpy warnings on stderr count and a hang times out
    config = write_config(tmp_path / "config.yaml", check_config(
        tmp_path / "run", {"n": 4, "f": f, "g": ["0", "0", "0", "1"]}))
    proc = subprocess.run([sys.executable, "-m", "elcontrol.cli",
                           "check-linearizable", "--config", config],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), proc.stderr
    assert len(err[0]) <= 200, err[0]


@pytest.mark.parametrize("system", [
    {"fixture": "integrator-chain", "n": 7},
    {"fixture": "integrator-chain", "n": 10**9},
    {"n": 7, "f": ["y2", "y3", "y4", "y5", "y6", "y7", "0"], "g": ["0"] * 6 + ["1"]},
], ids=["chain", "huge chain", "inline"])
def test_check_state_dimension_over_the_cap_is_one_error_line(tmp_path, capsys, system):
    cfg = check_config(tmp_path / "run", system) | {"samples": 1}
    assert run_cli(tmp_path, "check-linearizable", cfg) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "state dimension" in err[0], err


def test_simulate_negative_noise_std_is_one_error_line(tmp_path, teacher_run, capsys):
    cfg = sim_config(tmp_path / "run", str(teacher_run / "plant_model.npz"), ["lqr"])
    assert run_cli(tmp_path, "simulate", cfg | {"noise_std": -1.0}) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "noise_std" in err[0], err


def test_check_rejects_ambiguous_system_blocks(tmp_path, capsys):
    cfg = check_config(tmp_path / "run",
                       {"fixture": "integrator-chain", "f": ["0", "0"]})
    assert run_cli(tmp_path, "check-linearizable", cfg) == 1
    assert "exactly one" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# entry point

def test_module_entry_point_runs(tmp_path):
    config = write_config(tmp_path / "config.yaml", check_config(
        tmp_path / "run", {"fixture": "integrator-chain"}))
    proc = subprocess.run([sys.executable, "-m", "elcontrol.cli",
                           "check-linearizable", "--config", config],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verdict: pass" in proc.stdout
    assert (tmp_path / "run" / "summary.json").exists()
