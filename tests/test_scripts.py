"""The scripts under ``scripts/`` run end to end at tiny sizes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import datamoll
from datamoll.mol1 import load_mol1
from datamoll.study import texture_splits

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, code=0):
    src = str(Path(datamoll.__file__).resolve().parent.parent)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc


def test_make_datasets_writes_loadable_containers(tmp_path):
    run_script(
        "make_datasets.py", "--out", str(tmp_path), "--seed", "3",
        "--train-count", "16", "--test-count", "8", "--fractal-count", "4",
    )
    counts = {"textures_train": 16, "textures_test": 8, "fractal": 4}
    for name, count in counts.items():
        assert load_mol1(tmp_path / f"{name}.mol1").count == count
    # The texture splits are the study's own.
    ds_train, ds_test = texture_splits(3, 16, 8)
    for ds, name in ((ds_train, "textures_train"), (ds_test, "textures_test")):
        loaded = load_mol1(tmp_path / f"{name}.mol1")
        assert np.array_equal(loaded.labels, ds.labels)
        assert np.array_equal(loaded.images, ds.images.astype(np.float32))


def test_robustness_study_writes_summary(tmp_path):
    out = tmp_path / "summary.json"
    run_script(
        "robustness_study.py", "--seeds", "0", "--epochs", "1",
        "--train-count", "64", "--test-count", "32", "--out", str(out),
    )
    summary = json.loads(out.read_text())
    assert "relative_error_reduction" in summary


def test_robustness_study_rejects_an_unwritable_out_before_training(tmp_path):
    proc = run_script(
        "robustness_study.py", "--seeds", "0", "--epochs", "1",
        "--train-count", "64", "--test-count", "32", "--out", str(tmp_path), code=3,
    )
    assert proc.stderr == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
    assert "baseline" not in proc.stdout


@pytest.mark.parametrize(
    "name, flag, value",
    [
        ("make_datasets.py", "--seed", "-1"),
        ("make_datasets.py", "--train-count", "0"),
        ("robustness_study.py", "--seeds", "0,-1"),
        ("robustness_study.py", "--epochs", "0"),
    ],
)
def test_bad_option_is_a_usage_error_naming_it(tmp_path, name, flag, value):
    proc = run_script(name, "--out", str(tmp_path / "out"), flag, value, code=2)
    assert f"error: argument {flag}: " in proc.stderr
    assert not (tmp_path / "out").exists()


def test_failure_is_exit_3_without_a_traceback(tmp_path):
    out = tmp_path / "taken"
    out.write_text("a file, not a directory")
    proc = run_script(
        "make_datasets.py", "--out", str(out),
        "--train-count", "4", "--test-count", "4", "--fractal-count", "2", code=3,
    )
    assert proc.stderr.startswith("error: ")
