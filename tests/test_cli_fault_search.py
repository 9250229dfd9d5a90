"""Generated fault search over the command line.

Each example takes a valid config of one command, one that sets every
top-level key the command declares, and mutates one key anywhere in it:
a value of the wrong type, 0, 3, a negative number, NaN or inf, an empty
list, a list one entry too wide, or the key removed.  Whatever the
mutation, the command must exit 0, or exit 1 with exactly one stderr line
that starts with `error:`; it must never raise.  Work counts (epochs,
samples, substeps) are small in the valid configs and no mutation sets a
number above 3, so no example runs unbounded work.
"""

import copy
import itertools

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from elcontrol.cli import _COMMANDS, main

DIMS = {"ny": 2, "nu": 2, "nd": 1, "nz": 1}
ARCH = {"phi_depth": 1, "phi_hidden": 4, "psi_depth": 1, "psi_hidden": 4,
        "xi_depth": 1, "xi_hidden": 4, "core_hidden": 4}
_DELETE, _WIDEN = object(), object()
_RUNS = itertools.count()
MUTATIONS = ["x", {"a": 1}, 0, 3, -1, -0.5, float("nan"), float("inf"), [], _WIDEN, _DELETE]


def valid_configs(source):
    """A small config per command that sets every optional key; inputs come
    from the gen-data run in `source`."""
    model, data = str(source / "plant_model.npz"), str(source / "dataset.csv")
    signal = {"kind": "sum-of-sines", "period": 0.02, "low": -1.0, "high": 1.0, "seed": 3}
    return {
        "gen-data": {
            "seed": 1, "plant": {"kind": "teacher", "seed": 7, "dims": DIMS, "arch": ARCH},
            "dataset": {"duration": 0.1, "step": 0.005, "y0": [0.1, -0.1], "fd_tol": 0.05},
            "excitation": {"v": {**signal, "kind": "prbs", "period": 1.0}, "d": signal}},
        "train": {
            "seed": 1, "dataset": data, "dims": DIMS, "arch": ARCH,
            "init": {"seed": 2, "map_scale": 0.02}, "holdout": data,
            "train": {"epochs": 1, "batch_size": 8, "step_size": 0.01, "decay": 0.9,
                      "seed": 3, "val_fraction": 0.25}},
        "eval": {"model": model, "dataset": data},
        "design-lqr": {"model": model, "target": {"y": [0.2, -0.1], "d": [0.0], "tol": 1e-5},
                       "weights": {"q": 4.0, "r": [1.0, 2.0]}},
        "simulate": {
            "seed": 2, "model": model, "plant": {"kind": "teacher", "model": model},
            "controllers": ["lqr", "icbf"],
            "target": {"schedule": {"times": [0.0, 0.005], "values": [[0.2, -0.1], [0.1, 0.0]]}},
            "disturbance": {"constant": [0.0]}, "horizon": 0.01, "control_period": 0.005,
            "substeps": 1, "y0": [0.0, 0.1], "u0": [0.0, 0.0], "noise_std": 0.01,
            "weights": {"q": [4.0, 2.0], "r": [[1.0, 0.0], [0.0, 1.0]]},
            "barrier": {"z_max": [1.0e6], "v_min": [-5.0, -5.0], "v_max": [5.0, 5.0],
                        "k1": 10.0, "k2": 1.0, "rate_weight": 0.05, "margin": 0.01},
            "plots": True},
        "check-linearizable": {
            "seed": 0, "system": {"n": 2, "f": ["y2", "0"], "g": ["0", "1"]},
            "domain": {"low": -1.0, "high": [1.0, 2.0]}, "samples": 3, "tol": 1e-6},
    }


def key_paths(node, prefix=()):
    """The path to every key of every mapping, and every list entry, in `node`."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from key_paths(value, prefix + (key,))


def mutated(cfg, path, mutation):
    cfg = copy.deepcopy(cfg)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    if mutation is _DELETE:
        del parent[path[-1]]
    elif mutation is _WIDEN:
        parent[path[-1]] = (value + value[-1:] if isinstance(value, list) and value
                            else [value] * 5)
    else:
        parent[path[-1]] = mutation
    return cfg


@pytest.fixture(scope="module")
def source(tmp_path_factory):
    root = tmp_path_factory.mktemp("source")
    cfg = valid_configs(root)["gen-data"]
    with open(root / "gen.yaml", "w") as f:
        yaml.safe_dump(cfg, f)
    assert main(["gen-data", "--config", str(root / "gen.yaml"), "--out", str(root)]) == 0
    return root


@pytest.mark.parametrize("command", _COMMANDS)
def test_valid_configs_set_every_declared_key_and_run(tmp_path, source, command):
    _, required, optional, _ = _COMMANDS[command]
    cfg = valid_configs(source)[command]
    assert set(cfg) - {"seed"} == set(required) | set(optional)
    with open(tmp_path / "c.yaml", "w") as f:
        yaml.safe_dump(cfg, f)
    assert main([command, "--config", str(tmp_path / "c.yaml"), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("command", _COMMANDS)
@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_mutated_key_is_a_result_or_one_error_line(tmp_path, source, capsys, command,
                                                        data):
    cfg = valid_configs(source)[command]
    path = data.draw(st.sampled_from(list(key_paths(cfg))), label="path")
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    run = tmp_path / f"run{next(_RUNS)}"
    run.mkdir()
    with open(run / "c.yaml", "w") as f:
        yaml.safe_dump(mutated(cfg, path, mutation), f)
    capsys.readouterr()
    status = main([command, "--config", str(run / "c.yaml"), "--out", str(run / "out")])
    err = capsys.readouterr().err.splitlines()
    assert status == 0 and not err or status == 1 and len(err) == 1 \
        and err[0].startswith("error:"), (status, err)

