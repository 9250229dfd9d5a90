"""`criterion10.py --compare`: the 1e-12 relative rule over two output trees."""

import json
import shutil

import criterion10


def write_tree(root, value=0.25, leaf=3.0):
    (root / "run").mkdir(parents=True)
    (root / "run" / "trace.csv").write_text(f"t,x1\n0,{value!r}\n0.5,-2\n")
    (root / "run" / "summary.json").write_text(
        json.dumps({"command": "simulate", "worst": [1.0, leaf], "ticks": 2}))
    (root / "run" / "config.echo.yaml").write_text("seed: 1\n")
    return root


def test_identical_trees_pass(tmp_path):
    a = write_tree(tmp_path / "a")
    shutil.copytree(a, tmp_path / "b")
    assert criterion10.main(["--compare", str(a), str(tmp_path / "b")]) == 0


def test_relative_differences_at_1e_10_fail_and_below_1e_12_pass(tmp_path, capsys):
    a = write_tree(tmp_path / "a")
    # relative to the column's largest magnitude, 2
    close = write_tree(tmp_path / "close", value=0.25 + 2e-13)
    csv_far = write_tree(tmp_path / "csv_far", value=0.25 + 2e-10)
    json_far = write_tree(tmp_path / "json_far", leaf=3.0 * (1 + 1e-10))
    assert criterion10.main(["--compare", str(a), str(close)]) == 0
    assert criterion10.main(["--compare", str(a), str(csv_far)]) == 1
    assert "run/trace.csv: x1 0.25" in capsys.readouterr().out
    assert criterion10.main(["--compare", str(a), str(json_far)]) == 1
    assert "run/summary.json: worst" in capsys.readouterr().out


def test_text_and_file_set_differences_fail(tmp_path):
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b")
    (b / "run" / "config.echo.yaml").write_text("seed: 2\n")
    assert criterion10.main(["--compare", str(a), str(b)]) == 1
    c = write_tree(tmp_path / "c")
    (c / "run" / "extra.csv").write_text("t\n0\n")
    assert criterion10.main(["--compare", str(a), str(c)]) == 1
