"""Generated fault search over the files the command line reads, and the
round trip of each file format.

Each search example takes the model container and the dataset that one
`gen-data` run writes and mutates one of them: an entry dropped, added,
reshaped, retyped or given a non-finite value, the metadata edited, CSV
rows or columns removed, reordered or duplicated, or a sidecar key edited.
`eval`, `train`, `design-lqr` or `simulate` then reads the mutated file and
must exit 0 with its outputs written, or exit 1 with exactly one stderr line
that starts with `error:`; it must never raise.  A file that is read must
be one the writer writes: it reads back to the same bytes.
"""

import itertools
import json

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from elcontrol.cli import main
from elcontrol.model import (ELModel, ModelArch, ModelDims, Scaler, TrajectoryDataset,
                             _write_npz, load_model, read_csv, save_model, write_csv)

DIMS = {"ny": 2, "nu": 2, "nd": 1, "nz": 1}
ARCH = {"phi_depth": 1, "phi_hidden": 4, "psi_depth": 1, "psi_hidden": 4,
        "xi_depth": 1, "xi_hidden": 4, "core_hidden": 4}
_RUNS = itertools.count()


@pytest.fixture(scope="module")
def source(tmp_path_factory):
    root = tmp_path_factory.mktemp("source")
    signal = {"kind": "sum-of-sines", "period": 0.02, "low": -1.0, "high": 1.0}
    cfg = {"seed": 1, "plant": {"kind": "teacher", "seed": 7, "dims": DIMS, "arch": ARCH},
           "dataset": {"duration": 0.1, "step": 0.005, "fd_tol": 0.05},
           "excitation": {"v": signal, "d": signal}}
    with open(root / "gen.yaml", "w") as f:
        yaml.safe_dump(cfg, f)
    assert main(["gen-data", "--config", str(root / "gen.yaml"), "--out", str(root)]) == 0
    return root


def config(command, model, data):
    return {
        "eval": {"model": model, "dataset": data},
        "train": {"dataset": data, "dims": DIMS, "arch": ARCH,
                  "train": {"epochs": 1, "batch_size": 8}},
        "design-lqr": {"model": model, "target": {"y": [0.2, -0.1], "d": [0.0]}},
        "simulate": {"model": model, "plant": {"kind": "teacher", "model": model},
                     "controllers": ["lqr"], "target": {"constant": [0.2, -0.1]},
                     "disturbance": {"constant": [0.0]}, "horizon": 0.01,
                     "control_period": 0.005, "substeps": 1},
    }[command]


RETYPES = [np.float32, np.float16, np.int64, np.complex128, ">f8", np.bool_, "U1"]
NON_FINITE = [np.nan, np.inf, -np.inf]
# values an edited metadata or sidecar key takes
EDITS = [None, 0, 2, -1, 1.5, "x", True, [], {}, [1, 1, 1, 1], 1e300]


def mutated_model(draw, source, path):
    with np.load(source / "plant_model.npz") as data:
        arrays = {key: data[key] for key in data.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    kind = draw(st.sampled_from(["drop", "add", "reshape", "retype", "non-finite",
                                 "metadata"]), label="model mutation")
    key = draw(st.sampled_from(sorted(arrays)), label="entry")
    arr = arrays[key]
    if kind == "drop":
        del arrays[key]
    elif kind == "add":
        arrays[draw(st.sampled_from(["param.extra", "scaler.w.mean", "extra"]))] = arr
    elif kind == "reshape":
        flat = arr.reshape(-1)
        arrays[key] = draw(st.sampled_from([flat[:-1], np.concatenate([flat, flat[:1]]),
                                            arr.reshape(1, -1), arr.T, flat]))
    elif kind == "retype":
        arrays[key] = arr.astype(draw(st.sampled_from(RETYPES)))
    elif kind == "non-finite":
        key = draw(st.sampled_from(sorted(k for k in arrays if k != "__meta__")))
        arrays[key] = arrays[key].copy()
        arrays[key].flat[draw(st.integers(0, arrays[key].size - 1))] = \
            draw(st.sampled_from(NON_FINITE))
    else:
        section = draw(st.sampled_from(["format_version", "dims", "arch", "extra"]))
        edit = draw(st.sampled_from(EDITS + ["drop"]))
        if section == "dims" and draw(st.booleans()):
            meta["dims"][draw(st.integers(0, 3))] = edit
        elif section == "arch" and draw(st.booleans()):
            field = draw(st.sampled_from(sorted(ARCH)))
            if edit == "drop":
                del meta["arch"][field]
            else:
                meta["arch"][field] = edit
        elif edit == "drop":
            meta.pop(section, None)
        else:
            meta[section] = edit
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    _write_npz(path, arrays)


def mutated_dataset(draw, source, path):
    lines = (source / "dataset.csv").read_text().splitlines()
    table = [line.split(",") for line in lines]
    meta = json.loads((source / "dataset.csv.meta.json").read_text())
    kind = draw(st.sampled_from(["rows", "columns", "sidecar"]), label="dataset mutation")
    if kind == "sidecar":
        key = draw(st.sampled_from(sorted(meta) + ["extra"]), label="sidecar key")
        edit = draw(st.sampled_from(EDITS + ["drop", 0.01, float("inf"), float("nan")]))
        if edit == "drop":
            meta.pop(key, None)
        else:
            meta[key] = edit
    else:
        op = draw(st.sampled_from(["remove", "reorder", "duplicate"]), label=kind)
        if kind == "columns":
            table = [list(column) for column in zip(*table)]
        i = draw(st.integers(1 if kind == "rows" else 0, len(table) - 1))
        j = draw(st.integers(1 if kind == "rows" else 0, len(table) - 1))
        if op == "remove":
            del table[i]
        elif op == "reorder":
            table[i], table[j] = table[j], table[i]
        else:
            table.insert(j, table[i])
        if kind == "columns":
            table = [list(row) for row in zip(*table)]
    path.write_text("".join(",".join(row) + "\n" for row in table))
    (path.parent / f"{path.name}.meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=1) + "\n")


@pytest.mark.parametrize("command, target", [("eval", "model"), ("eval", "dataset"),
                                             ("train", "dataset"), ("design-lqr", "model"),
                                             ("simulate", "model")])
@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_mutated_file_is_a_result_or_one_error_line(tmp_path, source, capsys, command,
                                                        target, data):
    run = tmp_path / f"run{next(_RUNS)}"
    run.mkdir()
    model, dataset = source / "plant_model.npz", source / "dataset.csv"
    if target == "model":
        model = run / "model.npz"
        mutated_model(data.draw, source, model)
    else:
        dataset = run / "data.csv"
        mutated_dataset(data.draw, source, dataset)
    with open(run / "c.yaml", "w") as f:
        yaml.safe_dump(config(command, str(model), str(dataset)), f)
    capsys.readouterr()
    status = main([command, "--config", str(run / "c.yaml"), "--out", str(run / "out")])
    err = capsys.readouterr().err.splitlines()
    assert status == 0 and not err or status == 1 and len(err) == 1 \
        and err[0].startswith("error:"), (status, err)
    if status == 0:
        outputs = json.loads((run / "out" / "summary.json").read_text())["outputs"]
        assert all((run / "out" / name).is_file() for name in outputs)
        # a file that is read is one the writer writes: it reads back to its bytes
        if target == "model":
            save_model(load_model(model), run / "again.npz")
            written = [(model, run / "again.npz")]
        else:
            write_csv(read_csv(dataset), run / "again.csv")
            written = [(dataset, run / "again.csv"),
                       (run / "data.csv.meta.json", run / "again.csv.meta.json")]
        for mutated, again in written:
            assert mutated.read_bytes() == again.read_bytes(), mutated.name


@given(dims=st.tuples(*[st.integers(1, 3)] * 4),
       arch=st.tuples(*[st.integers(1, 2), st.integers(1, 4)] * 3, st.integers(1, 4)),
       rows=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       fd_tol=st.sampled_from([0.0, 1e-2, 0.05, float("inf")]))
def test_each_format_round_trips_byte_for_byte(tmp_path_factory, dims, arch, rows, seed,
                                               fd_tol):
    """write -> read -> write gives the same bytes, for the model container
    (random scalers) and for the dataset CSV with its sidecar."""
    tmp = tmp_path_factory.mktemp("round")
    rng = np.random.default_rng(seed)
    dims = ModelDims(*dims)
    model = ELModel.random(dims, ModelArch(*arch), seed=seed)
    model = ELModel(dims, model.arch, {name: Scaler(rng.normal(size=width),
                                                    rng.uniform(0.1, 2.0, size=width))
                                       for name, width in zip("yvdz", (dims.ny, dims.nu,
                                                                        dims.nd, dims.nz))},
                    model.params)
    save_model(model, tmp / "a.npz")
    save_model(load_model(tmp / "a.npz"), tmp / "b.npz")
    assert (tmp / "a.npz").read_bytes() == (tmp / "b.npz").read_bytes()

    t = rng.uniform(-5.0, 5.0) + 0.01 * np.arange(rows)
    y = rng.normal(size=(rows, dims.ny))
    d = rng.normal(size=(rows, dims.nd))
    derivatives = ({} if rows >= 3 else
                   {"y_dot": rng.normal(size=(rows, dims.ny)),
                    "d_dot": rng.normal(size=(rows, dims.nd))})
    dataset = TrajectoryDataset(t, rng.normal(size=(rows, dims.nu)), d, y,
                                rng.normal(size=(rows, dims.nz)), fd_tol=fd_tol,
                                **derivatives)
    written = write_csv(dataset, tmp / "a.csv")
    assert list(map(str, written)) == [str(tmp / "a.csv"), f"{tmp / 'a.csv'}.meta.json"]
    write_csv(read_csv(tmp / "a.csv"), tmp / "b.csv")
    for name in ("b.csv", "b.csv.meta.json"):
        assert (tmp / name).read_bytes() == (tmp / name.replace("b", "a", 1)).read_bytes()
