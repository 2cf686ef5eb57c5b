import argparse
import codecs
import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

import datamoll
from datamoll.cli import _DEFAULTS, build_parser, exit_code, main, run_study
from datamoll.metrics import evaluate, format_report_table, read_records_csv
from datamoll.mol1 import load_mol1, save_mol1
from datamoll.schedules import ScheduleConfig, blur_sigma, gamma_noise, snr
from datamoll.study import ARMS, aggregate, texture_splits
from datamoll.synth import grating_dataset, standardized_dataset
from datamoll.trainer import MlpParams, load_params, save_params


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    raw, labels = grating_dataset(48, seed=1)
    ds = standardized_dataset(raw, labels, 4, provenance="fixture")
    path = root / "train.mol1"
    save_mol1(ds, path)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestIngest:
    def test_csv_directory_roundtrip(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(4, 8, 8), dtype=np.int64)
        for i in range(4):
            np.savetxt(src / f"img{i}.csv", pixels[i], fmt="%d", delimiter=",")
        (src / "labels.csv").write_text(
            "filename,label\n" + "\n".join(f"img{i}.csv,{i % 2}" for i in range(4)) + "\n"
        )
        out = tmp_path / "out.mol1"
        assert main(["ingest", str(src), "--out", str(out)]) == 0
        ds = load_mol1(out)
        assert ds.count == 4 and ds.height == 8 and ds.width == 8 and ds.channels == 1
        # stats in the manifest reproduce an independent two-pass computation
        raw = pixels.astype(np.float64)[:, :, :, None] / 255.0
        mean = raw.mean()
        std = math.sqrt(((raw - mean) ** 2).mean())
        assert ds.stats.mean[0] == approx(mean)
        assert ds.stats.std[0] == approx(std)
        # stored images are standardized
        assert ds.images.mean() == approx(0.0, abs=1e-7)

    def test_reingest_own_export_is_idempotent(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        rng = np.random.default_rng(1)
        for i in range(3):
            np.savetxt(
                src / f"img{i}.csv",
                rng.integers(0, 256, size=(6, 6), dtype=np.int64),
                fmt="%d",
                delimiter=",",
            )
        (src / "labels.csv").write_text("\n".join(f"img{i}.csv,{i}" for i in range(3)))
        first = tmp_path / "first.mol1"
        second = tmp_path / "second.mol1"
        assert main(["ingest", str(src), "--out", str(first)]) == 0
        assert main(["ingest", str(first), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_empty_directory_errors(self, tmp_path):
        src = tmp_path / "empty"
        src.mkdir()
        (src / "labels.csv").write_text("filename,label\n")
        assert main(["ingest", str(src), "--out", str(tmp_path / "x.mol1")]) == 3

    def test_missing_label_lists_offender(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        np.savetxt(src / "a.csv", np.zeros((2, 2), dtype=int), fmt="%d", delimiter=",")
        np.savetxt(src / "b.csv", np.zeros((2, 2), dtype=int), fmt="%d", delimiter=",")
        (src / "labels.csv").write_text("a.csv,0\n")
        assert main(["ingest", str(src), "--out", str(tmp_path / "x.mol1")]) == 3
        assert "b.csv" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_empty_csv_image_is_one_error_line(self, tmp_path, capsys):
        src = tmp_path / "ing"
        src.mkdir()
        (src / "a.csv").write_text("")
        (src / "labels.csv").write_text("a.csv,0\n")
        assert main(["ingest", str(src), "--out", str(tmp_path / "x.mol1")]) == 3
        assert capsys.readouterr().err == f"error: malformed image file {src / 'a.csv'}: no pixels\n"

    def test_inconsistent_shapes_error(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        np.savetxt(src / "a.csv", np.zeros((2, 2), dtype=int), fmt="%d", delimiter=",")
        np.savetxt(src / "b.csv", np.zeros((3, 3), dtype=int), fmt="%d", delimiter=",")
        (src / "labels.csv").write_text("a.csv,0\nb.csv,1\n")
        assert main(["ingest", str(src), "--out", str(tmp_path / "x.mol1")]) == 3

    @pytest.mark.parametrize(
        "image, shape, named",
        [
            ("a.csv", '{"height": 2}', "'channels'"),
            ("a.csv", "[1, 2]", "JSON object"),
            ("a.csv", '{"channels": "1"}', "'channels'"),
            ("a.csv", '{"channels": true}', "'channels'"),
            ("a.csv", '{"channels": 0}', "'channels'"),
            ("a.csv", "{height", "not JSON"),
            ("a.raw", '{"height": 2, "channels": 1}', "'width'"),
            ("a.raw", '{"height": 2, "width": 2.5, "channels": 1}', "'width'"),
        ],
    )
    def test_bad_shape_json_is_a_data_error_naming_file_and_key(
        self, tmp_path, capsys, image, shape, named
    ):
        src = tmp_path / "src"
        src.mkdir()
        if image.endswith(".csv"):
            np.savetxt(src / image, np.zeros((2, 2), dtype=int), fmt="%d", delimiter=",")
        else:
            (src / image).write_bytes(bytes(4))
        (src / "labels.csv").write_text(f"{image},0\n")
        (src / "shape.json").write_text(shape)
        assert main(["ingest", str(src), "--out", str(tmp_path / "x.mol1")]) == 3
        err = capsys.readouterr().err
        assert "shape.json" in err and named in err

    def test_label_that_is_not_an_integer_names_file_and_row(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        for name in ("a.csv", "b.csv"):
            np.savetxt(src / name, np.zeros((2, 2), dtype=int), fmt="%d", delimiter=",")
        (src / "labels.csv").write_text("filename,label\na.csv,0\nb.csv,x\n")
        assert main(["ingest", str(src), "--out", str(tmp_path / "x.mol1")]) == 3
        err = capsys.readouterr().err
        assert "labels.csv row 3: label 'x' is not an integer in [0, 4294967294]" in err

    def test_a_label_row_after_a_field_spanning_lines_is_named_by_its_file_line(
        self, tmp_path, capsys
    ):
        src = tmp_path / "src"
        src.mkdir()
        (src / "labels.csv").write_text('"a.csv\nx",0\nb.csv,z\n')
        assert main(["ingest", str(src), "--out", str(tmp_path / "x.mol1")]) == 3
        message = f"{src / 'labels.csv'} row 3: label 'z' is not an integer in [0, 4294967294]"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_labels_that_are_not_utf8_name_file_and_row(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.csv").write_text("0,0\n0,0\n")
        (src / "labels.csv").write_bytes(b"a.csv,0\n\xff\n")
        assert main(["ingest", str(src), "--out", str(tmp_path / "x.mol1")]) == 3
        assert "labels.csv row 2: not UTF-8" in capsys.readouterr().err

    def test_labels_with_a_bom_ingest_as_without(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        for name, value in (("a.csv", 0), ("b.csv", 255)):
            np.savetxt(src / name, np.full((2, 2), value), fmt="%d", delimiter=",")
        rows = b"a.csv,0\nb.csv,1\n"
        containers = set()
        for labels in (rows, codecs.BOM_UTF8 + rows, codecs.BOM_UTF8 + b"filename,label\n" + rows):
            (src / "labels.csv").write_bytes(labels)
            assert main(["ingest", str(src), "--out", str(tmp_path / "x.mol1")]) == 0
            containers.add((tmp_path / "x.mol1").read_bytes())
        assert len(containers) == 1

    def test_labels_with_a_bom_that_are_not_utf8_name_the_row(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.csv").write_text("0,0\n0,0\n")
        (src / "labels.csv").write_bytes(codecs.BOM_UTF8 + b"a.csv,0\n\xff\n")
        assert main(["ingest", str(src), "--out", str(tmp_path / "x.mol1")]) == 3
        assert "labels.csv row 2: not UTF-8 (invalid start byte at byte 11)" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["a.csv", "shape.json"])
    def test_an_image_or_shape_json_with_a_bom_ingests_as_without(self, tmp_path, name):
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.csv").write_text("0,255\n7,9\n")
        (src / "b.csv").write_text("1,2\n3,4\n")
        (src / "labels.csv").write_text("a.csv,0\nb.csv,1\n")
        (src / "shape.json").write_text('{"channels": 1}')
        out = tmp_path / "x.mol1"
        outputs = []
        for bom in (b"", codecs.BOM_UTF8):
            (src / name).write_bytes(bom + (src / name).read_bytes())
            assert main(["ingest", str(src), "--out", str(out)]) == 0
            outputs.append((out.read_bytes(), Path(f"{out}.json").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_a_csv_image_is_read_as_labels_csv_is(self, tmp_path):
        # One CSV grammar: blank rows are skipped and a quoted cell is read; a
        # pixel may be zero-padded and have blanks around it.
        src = tmp_path / "src"
        src.mkdir()
        (src / "b.csv").write_text("1,2\n3,4\n")
        (src / "labels.csv").write_text("a.csv,0\nb.csv,1\n")
        out = tmp_path / "x.mol1"
        outputs = []
        for grid in ("0,255\n7,9\n", '\n"0", 255\r\n\n007,"9"\n\n'):
            (src / "a.csv").write_text(grid, newline="")
            assert main(["ingest", str(src), "--out", str(out)]) == 0
            outputs.append((out.read_bytes(), Path(f"{out}.json").read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "name, content, message",
        [
            (
                "labels.csv", b"a.csv,0\n" + b"x" * 200_000 + b",1\n",
                "row 2: not CSV (field larger than field limit (131072))",
            ),
            ("a.csv", b"0,0\n0,\xff0\n", "row 2: not UTF-8 (invalid start byte at byte 6)"),
        ],
        ids=["oversized-label-field", "image-not-utf8"],
    )
    def test_unreadable_text_is_one_error_line_naming_file_and_row(
        self, tmp_path, capsys, name, content, message
    ):
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.csv").write_text("0,0\n0,0\n")
        (src / "labels.csv").write_text("a.csv,0\n")
        (src / name).write_bytes(content)
        out = tmp_path / "x.mol1"
        assert main(["ingest", str(src), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {src / name} {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "labels, pixels, named",
        [
            ("a.csv,0\nb.csv,0\na.csv,1\n", "0,0\n0,0\n", "labels.csv row 3: a.csv is listed twice"),
            (
                "a.csv,-1\nb.csv,0\n", "0,0\n0,0\n",
                "labels.csv row 1: label '-1' is not an integer in [0, 4294967294]",
            ),
            ("a.csv,0\nb.csv,1,junk\n", "0,0\n0,0\n", "labels.csv row 2: malformed row"),
            ("a.csv,0\nb.csv,1\n", "0,x\n0,0\n", "a.csv row 1"),
            # A blank row is skipped, and a row is numbered by its file line.
            ("a.csv,0\nb.csv,1\n", "0,0\n\n0,x\n", "a.csv row 3"),
            ("a.csv,0\nb.csv,1\n", "# c\n0,0\n0,0\n", "a.csv row 1"),
            ("a.csv,0\nb.csv,1\n", "0,0\n0,0,0\n", "a.csv row 2: 3 values"),
            ("a.csv,0\nb.csv,1\n", "0,0\n0,256\n", "a.csv row 2: pixel '256'"),
            ("a.csv,0\nb.csv,1\n", "0,1_0\n0,0\n", "a.csv row 1: pixel '1_0'"),
            # The class count, label + 1, must fit MOL1's u32 header field.
            ("a.csv,4294967295\nb.csv,0\n", "0,0\n0,0\n", "labels.csv row 1: label '4294967295'"),
            (
                "a.csv,0\nb.csv,99999999999999999999\n", "0,0\n0,0\n",
                "labels.csv row 2: label '99999999999999999999' is not an integer in [0, 4294967294]",
            ),
        ],
        ids=[
            "duplicate-label", "negative-label", "three-field-label-row", "non-integer-pixel",
            "blank-line", "comment-line",
            "ragged-row", "pixel-past-255", "underscore-in-pixel", "label-past-u32",
            "label-past-int64",
        ],
    )
    def test_bad_labels_and_pixels_name_file_and_row(
        self, tmp_path, capsys, labels, pixels, named
    ):
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.csv").write_text(pixels)
        (src / "b.csv").write_text("0,0\n0,0\n")
        (src / "labels.csv").write_text(labels)
        out = tmp_path / "x.mol1"
        assert main(["ingest", str(src), "--out", str(out)]) == 3
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_raw_images_with_shape_json_ingest(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        pixels = np.arange(2 * 3 * 2 * 3, dtype=np.uint8).reshape(2, 3, 2, 3)
        for i in range(2):
            (src / f"img{i}.raw").write_bytes(pixels[i].tobytes())
        (src / "labels.csv").write_text("img0.raw,0\nimg1.raw,1\n")
        (src / "shape.json").write_text('{"height": 3, "width": 2, "channels": 3}')
        out = tmp_path / "out.mol1"
        assert main(["ingest", str(src), "--out", str(out)]) == 0
        ds = load_mol1(out)
        raw = np.round((ds.images * ds.stats.std + ds.stats.mean) * 255.0)
        assert np.array_equal(raw, pixels)

    @pytest.mark.parametrize("flag", ["--seed", "--config"])
    def test_settings_flags_are_usage_errors(self, dataset_path, tmp_path, flag):
        # ingest reads no setting, so it takes neither flag
        config = tmp_path / "c.json"
        config.write_text("{}")
        value = {"--seed": "5", "--config": str(config)}[flag]
        out = tmp_path / "re.mol1"
        assert main(["ingest", str(dataset_path), "--out", str(out), flag, value]) == 2
        assert not out.exists()


class TestScheduleDump:
    def test_rows_match_module(self, tmp_path):
        out = tmp_path / "dump"
        assert main(["schedule-dump", "--out", str(out), "--t-steps", "5"]) == 0
        header, rows = read_csv(out / "schedules.csv")
        assert header == [
            "t", "alpha", "sigma", "snr", "gamma_noise", "sigma_b", "tau", "gamma_blur",
        ]
        assert len(rows) == 5
        cfg = ScheduleConfig(sigma_max=32.0)
        first, last = rows[0], rows[-1]
        assert [float(v) for v in first[:3]] == [0.0, 1.0, 0.0]
        assert float(first[3]) == math.inf
        assert float(first[4]) == 0.0
        assert float(first[5]) == 0.3
        assert float(last[1]) == approx(0.0, abs=1e-15)
        assert [float(last[2]), float(last[4]), float(last[5])] == [1.0, 1.0, 32.0]
        mid = rows[2]
        assert float(mid[0]) == 0.5
        assert float(mid[4]) == gamma_noise(0.5, 1.0) == 0.5
        assert float(mid[3]) == snr(0.5)
        assert float(mid[5]) == blur_sigma(0.5, cfg)

    def test_run_metadata_written(self, tmp_path):
        out = tmp_path / "dump"
        assert main(["schedule-dump", "--out", str(out), "--t-steps", "7"]) == 0
        meta = json.loads((out / "run.json").read_text())
        assert meta["command"] == "schedule-dump"
        assert meta["config"]["t_steps"] == 7
        # schedule-dump reads no seed and no dataset, so run.json records neither
        assert set(meta["config"]) == {"schedule", "t_steps"}
        assert "seed" not in meta and "dataset_sha256" not in meta
        assert len(meta["config_hash"]) == 64
        assert "numpy" in meta["versions"]

    # Near 2**63 np.linspace fails at once with an IndexError; the bound is
    # checked before it runs, so nothing is allocated.
    @pytest.mark.parametrize("command", ["schedule-dump", "infocurve"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_t_steps_past_2_53_rejected_before_the_run_starts(
        self, dataset_path, tmp_path, capsys, command, source
    ):
        out = tmp_path / "o"
        argv = [command, "--out", str(out)]
        if command == "infocurve":
            argv += ["--dataset", str(dataset_path)]
        if source == "flag":
            argv += ["--t-steps", str(2**63 - 1)]
        else:
            argv += ["--config", _write_config(tmp_path / "c.json", {"t_steps": 10**400})]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: t_steps must be <= 2**53, got ") and err.count("\n") == 1
        assert not out.exists()


class TestMollify:
    def test_forced_none_preserves_images(self, dataset_path, tmp_path):
        out = tmp_path / "moll"
        code = main(
            [
                "mollify",
                "--dataset", str(dataset_path),
                "--out", str(out),
                "--mode-probs", "1,0,0",
                "--seed", "3",
            ]
        )
        assert code == 0
        original = load_mol1(dataset_path)
        mollified = load_mol1(out / "mollified.mol1")
        assert np.array_equal(mollified.images, original.images)
        assert np.array_equal(mollified.labels, original.labels)
        header, rows = read_csv(out / "mollify.csv")
        assert header == ["index", "mode", "t", "gamma"]
        assert all(row[1] == "none" and float(row[3]) == 0.0 for row in rows)

    def test_gammas_match_schedule(self, dataset_path, tmp_path):
        out = tmp_path / "moll2"
        assert main(
            ["mollify", "--dataset", str(dataset_path), "--out", str(out), "--seed", "4"]
        ) == 0
        _, rows = read_csv(out / "mollify.csv")
        cfg = ScheduleConfig.for_width(16)
        from datamoll.schedules import gamma_blur

        for row in rows:
            mode, t, gamma = row[1], float(row[2]), float(row[3])
            if mode == "noise":
                assert gamma == gamma_noise(t, cfg.k_noise)
            elif mode == "blur":
                assert gamma == gamma_blur(t, cfg.k_blur)
            else:
                assert gamma == 0.0


@pytest.fixture(scope="module")
def trained(dataset_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(
        [
            "train",
            "--dataset", str(dataset_path),
            "--out", str(out),
            "--seed", "5",
            "--epochs", "4",
            "--batch-size", "16",
        ]
    )
    assert code == 0
    return out


class TestTrainEvalPipeline:
    def test_train_outputs(self, trained):
        assert (trained / "params.bin").exists()
        header, rows = read_csv(trained / "train_report.csv")
        assert header == ["epoch", "loss", "lr", "seconds"]
        assert len(rows) == 4
        meta = json.loads((trained / "run.json").read_text())
        assert meta["config"]["train"]["epochs"] == 4
        # sigma_max resolved to the dataset width
        assert meta["config"]["schedule"]["sigma_max"] == 16.0

    def test_eval_clean_and_corrupted(self, trained, dataset_path, tmp_path):
        out = tmp_path / "eval"
        code = main(
            [
                "eval", str(trained / "params.bin"),
                "--dataset", str(dataset_path),
                "--out", str(out),
                "--seed", "6",
                "--corruptions", "true",
                "--bins", "10",
            ]
        )
        assert code == 0
        payload = json.loads((out / "eval.json").read_text())
        assert payload["clean"]["count"] == 48
        assert payload["corrupted"]["count"] == 48 * 20
        assert len(payload["corrupted"]["per_tag"]) == 20
        records = read_records_csv(out / "records.csv")
        assert len(records) == 48 * 21
        table = (out / "eval.txt").read_text()
        assert "clean" in table and "gauss_blur-5" in table

    def test_eval_without_corruptions_reports_only_clean(self, trained, dataset_path, tmp_path):
        out = tmp_path / "eval"
        argv = ["eval", str(trained / "params.bin"), "--dataset", str(dataset_path)]
        assert main([*argv, "--out", str(out)]) == 0
        payload = json.loads((out / "eval.json").read_text())
        assert set(payload) == {"config_hash", "seed", "clean"}
        records = read_records_csv(out / "records.csv")
        assert len(records) == 48 and set(records["tag"]) == {"clean"}
        assert payload["clean"] == evaluate(records)
        assert (out / "eval.txt").read_text() == format_report_table(payload["clean"], "clean")

    def test_eval_json_is_evaluate_of_its_records(self, trained, dataset_path, tmp_path):
        out = tmp_path / "eval"
        argv = ["eval", str(trained / "params.bin"), "--dataset", str(dataset_path)]
        assert main([*argv, "--out", str(out), "--corruptions", "true", "--bins", "7"]) == 0
        payload = json.loads((out / "eval.json").read_text())
        records = read_records_csv(out / "records.csv")
        clean = records["tag"] == "clean"
        assert payload["clean"] == evaluate(records[clean], num_bins=7)
        assert payload["corrupted"] == evaluate(records[~clean], num_bins=7)

    def test_eval_uniform_zero_weight_model(self, tmp_path):
        raw, _ = grating_dataset(40, seed=9)
        labels = np.tile(np.arange(4), 10)  # exactly balanced
        ds = standardized_dataset(raw, labels, 4, provenance="balanced")
        data = tmp_path / "balanced.mol1"
        save_mol1(ds, data)
        params = MlpParams(np.zeros((8, 256)), np.zeros(8), np.zeros((4, 8)), np.zeros(4))
        ppath = tmp_path / "zero.bin"
        save_params(params, ppath, seed=0, config_hash="zero")
        out = tmp_path / "eval0"
        assert main(["eval", str(ppath), "--dataset", str(data), "--out", str(out)]) == 0
        payload = json.loads((out / "eval.json").read_text())
        assert payload["clean"]["error"] == approx(0.75)
        assert payload["clean"]["nll"] == approx(math.log(4.0), abs=1e-9)


class TestInfocurveAndSpectra:
    def test_infocurve_csv(self, dataset_path, tmp_path):
        out = tmp_path / "ic"
        assert main(
            ["infocurve", "--dataset", str(dataset_path), "--out", str(out), "--t-steps", "4"]
        ) == 0
        header, rows = read_csv(out / "infocurve.csv")
        assert header == ["t", "sigma_b", "mean_ratio"]
        assert len(rows) == 4
        assert float(rows[0][2]) == approx(1.0, abs=1e-9)

    def test_sigma_min_whose_tau_underflows_is_one_error_line(self, dataset_path, tmp_path, capsys):
        config = _write_config(tmp_path / "c.json", {"schedule": {"sigma_min": 1e-200}})
        out = tmp_path / "ic"
        argv = ["infocurve", "--dataset", str(dataset_path), "--out", str(out), "--config", config]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: sigma_min 1e-200 is too small") and err.count("\n") == 1
        assert not (out / "infocurve.csv").exists()

    def test_sigma_max_whose_tau_overflows_is_one_error_line(self, dataset_path, tmp_path, capsys):
        config = _write_config(tmp_path / "c.json", {"schedule": {"sigma_max": 1e200}})
        out = tmp_path / "ic"
        argv = ["infocurve", "--dataset", str(dataset_path), "--out", str(out), "--config", config]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: sigma_max 1e+200 is too large") and err.count("\n") == 1
        assert not (out / "run.json").exists() and not (out / "infocurve.csv").exists()

    def test_spectra_outputs(self, dataset_path, tmp_path):
        out = tmp_path / "sp"
        assert main(["spectra", "--dataset", str(dataset_path), "--out", str(out)]) == 0
        for kind in ("gauss_noise", "gauss_blur", "contrast", "pixelate"):
            header, rows = read_csv(out / f"spectral_{kind}.csv")
            assert len(rows) == 16 and len(header) == 16
            assert all(float(v) >= 0.0 for row in rows for v in row)
        header, rows = read_csv(out / "spectra_annuli.csv")
        assert header == ["kind", "band", "center", "mean_delta"]
        assert len(rows) == 4 * 8

    def test_spectra_of_one_pixel_images_is_a_data_error_without_output(self, tmp_path, capsys):
        raw = np.random.default_rng(0).random((8, 1, 1, 1))
        data = tmp_path / "px.mol1"
        save_mol1(standardized_dataset(raw, np.arange(8) % 2, 2, provenance="1x1"), data)
        out = tmp_path / "sp"
        assert main(["spectra", "--dataset", str(data), "--out", str(out)]) == 3
        assert "(1, 1)" in capsys.readouterr().err
        assert not list(out.glob("spectral_*.csv"))


class TestMakeDatasetsAndStudy:
    SMALL_DATA = ["--train-count", "16", "--test-count", "8", "--fractal-count", "4"]
    SMALL_STUDY = ["--seeds", "0", "--epochs", "1", "--train-count", "64", "--test-count", "32"]
    # The SHA-256 of each file make-datasets writes at seed 3 and SMALL_DATA; they
    # hold with and without NumPy's AVX-512 kernels.
    PINS = {
        "textures_train.mol1": "7e44390787fb9c178a4c7359455491b96f2665d605841db0768589cf6b2837c0",
        "textures_train.mol1.json": "b575ffa355e3bde4b91a96d0507de1b3dfbc4a5e008d0d37356f549152e46316",
        "textures_test.mol1": "98b1cf552c98ab0c97ceae7fc19a11d61ea7841ad121c2c80946c29c6e6a3a51",
        "textures_test.mol1.json": "3a570fad6f23d8a0a4af879a15b3c07193c373da9ec63b746eb0ee2a1846d238",
        "fractal.mol1": "cec017ef484c57d175889fb48733a81106106c18fc0d60a85359a523f354157d",
        "fractal.mol1.json": "2a128919f104d8f96ae4973e727ca0139c5b826f2730d7280398ab2353123367",
    }

    def test_make_datasets_writes_loadable_containers(self, tmp_path):
        assert main(["make-datasets", "--out", str(tmp_path), "--seed", "3", *self.SMALL_DATA]) == 0
        counts = {"textures_train": 16, "textures_test": 8, "fractal": 4}
        for name, count in counts.items():
            assert load_mol1(tmp_path / f"{name}.mol1").count == count
        # The texture splits are the study's own.
        ds_train, ds_test = texture_splits(3, 16, 8)
        for ds, name in ((ds_train, "textures_train"), (ds_test, "textures_test")):
            loaded = load_mol1(tmp_path / f"{name}.mol1")
            assert np.array_equal(loaded.labels, ds.labels)
            assert np.array_equal(loaded.images, ds.images.astype(np.float32))

    def test_make_datasets_files_are_pinned(self, tmp_path):
        assert main(["make-datasets", "--out", str(tmp_path), "--seed", "3", *self.SMALL_DATA]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in self.PINS
        }
        assert digests == self.PINS

    def test_study_writes_the_aggregate_of_its_seeds(self, tmp_path):
        assert main(["study", "--out", str(tmp_path), *self.SMALL_STUDY]) == 0
        summary = json.loads((tmp_path / "study.json").read_text())
        assert summary == aggregate([run_study(0, 64, 32, 1)])

    def test_study_with_an_errorless_baseline_writes_no_reduction(
        self, tmp_path, capsys, monkeypatch
    ):
        report = {"error": 0.0, "nll": 0.01, "ece": 0.01, "count": 32}
        result = {arm: {"clean": report, "corrupted": report} for arm in ARMS}
        monkeypatch.setattr("datamoll.cli.run_study", lambda *args: result)
        assert main(["study", "--out", str(tmp_path), *self.SMALL_STUDY]) == 0
        text = (tmp_path / "study.json").read_text()
        assert "NaN" not in text and json.loads(text)["relative_error_reduction"] is None
        assert "(n/a relative reduction)" in capsys.readouterr().out

    def test_study_rejects_an_unwritable_out_before_training(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("a file, not a directory")
        assert main(["study", "--out", str(out), *self.SMALL_STUDY]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: [Errno 17] File exists: {str(out)!r}\n"
        assert "baseline" not in captured.out

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("make-datasets", "--seed", "-1"),
            ("make-datasets", "--train-count", "0"),
            ("study", "--seeds", "0,-1"),
        ],
    )
    def test_bad_option_is_a_usage_error_naming_it(self, tmp_path, capsys, command, flag, value):
        assert main([command, "--out", str(tmp_path / "out"), flag, value]) == 2
        assert f"error: argument {flag}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags, config, line",
        [
            (["--epochs", "0"], {}, "epochs must be >= 1, got 0"),
            ([], {"train": {"epochs": 0}}, "epochs must be >= 1, got 0"),
            (
                [], {"seeds": []},
                "config key 'seeds' must be a non-empty list of integers in [0, 2**64), got []",
            ),
        ],
    )
    def test_bad_study_setting_is_a_data_error_before_run_json(
        self, tmp_path, capsys, flags, config, line
    ):
        out = tmp_path / "out"
        argv = ["study", "--out", str(out), *flags]
        assert main(argv + ["--config", _write_config(tmp_path / "c.json", config)]) == 3
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not out.exists()

    def test_a_failing_dataset_leaves_no_mol1_file(self, tmp_path, capsys):
        # 10**14 fractal images cannot be allocated; NumPy refuses at once.
        out = tmp_path / "out"
        argv = ["make-datasets", "--out", str(out), "--train-count", "16", "--test-count", "8"]
        assert main(argv + ["--fractal-count", "100000000000000"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(out.glob("*.mol1")) == []

    def test_failure_is_exit_3_without_a_traceback(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("a file, not a directory")
        argv = ["make-datasets", "--out", str(out)]
        argv += ["--train-count", "4", "--test-count", "4", "--fractal-count", "2"]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error: ")


class TestRerun:
    def run_all(self, dataset_path, out):
        data, seed = ["--dataset", str(dataset_path)], ["--seed", "4"]
        commands = [
            ["schedule-dump", "--out", str(out / "sd"), "--t-steps", "5"],
            ["mollify", *data, "--out", str(out / "mo"), *seed],
            ["train", *data, "--out", str(out / "tr"), *seed, "--epochs", "2"],
            ["eval", str(out / "tr" / "params.bin"), *data, "--out", str(out / "ev"), *seed,
             "--corruptions", "true"],
            ["infocurve", *data, "--out", str(out / "ic"), "--t-steps", "4"],
            ["spectra", *data, "--out", str(out / "sp"), *seed],
        ]
        for argv in commands:
            assert main(argv) == 0, argv
        report = out / "tr" / "train_report.csv"
        header, rows = read_csv(report)
        assert header[-1] == "seconds"
        report.write_text("".join(",".join(row[:-1]) + "\n" for row in rows))
        return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    def test_every_output_file_is_byte_identical(self, dataset_path, tmp_path):
        first = self.run_all(dataset_path, tmp_path / "a")
        second = self.run_all(dataset_path, tmp_path / "b")
        assert len(first) == 21
        assert first.keys() == second.keys()
        assert [name for name in first if first[name] != second[name]] == []


def _run_json(out):
    return json.loads((Path(out) / "run.json").read_text())


class TestRunRecord:
    EXPECTED_KEYS = {
        "schedule-dump": {"schedule", "t_steps"},
        "mollify": {"seed", "dataset", "schedule"},
        "train": {"seed", "dataset", "schedule", "train"},
        "eval": {"seed", "dataset", "bins", "corruptions"},
        "infocurve": {"dataset", "schedule", "t_steps"},
        "spectra": {"seed", "dataset"},
        "make-datasets": {"seed", "train_count", "test_count", "fractal_count"},
        "study": {"seeds", "train_count", "test_count", "train"},
    }

    @staticmethod
    def _argv(command, dataset_path, trained, out):
        argv = [command, "--out", str(out)]
        if command == "eval":
            argv.insert(1, str(trained / "params.bin"))
        if command in ("mollify", "train", "eval", "infocurve", "spectra"):
            argv += ["--dataset", str(dataset_path)]
        if command == "train":
            argv += ["--epochs", "1"]
        if command in ("schedule-dump", "infocurve"):
            argv += ["--t-steps", "3"]
        if command == "make-datasets":
            argv += TestMakeDatasetsAndStudy.SMALL_DATA
        if command == "study":
            argv += TestMakeDatasetsAndStudy.SMALL_STUDY
        return argv

    @pytest.mark.parametrize("command", list(EXPECTED_KEYS))
    def test_config_holds_the_keys_the_command_reads(
        self, dataset_path, trained, tmp_path, command
    ):
        out = tmp_path / "o"
        assert main(self._argv(command, dataset_path, trained, out)) == 0
        meta = _run_json(out)
        assert set(meta["config"]) == self.EXPECTED_KEYS[command]
        # The hash covers the command, its keys, and the dataset's content digest.
        payload = {"command": command, **meta["config"]}
        if "dataset" in payload:
            assert meta["config"]["dataset"] == str(dataset_path)
            manifest = Path(str(dataset_path) + ".json")
            content = dataset_path.read_bytes() + manifest.read_bytes()
            assert meta["dataset_sha256"] == hashlib.sha256(content).hexdigest()
            payload["dataset"] = meta["dataset_sha256"]
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert meta["config_hash"] == hashlib.sha256(canonical.encode()).hexdigest()

    def test_same_dataset_bytes_in_two_directories_give_one_hash(self, dataset_path, tmp_path):
        seen = []
        for name in ("a", "b"):
            root = tmp_path / name
            root.mkdir()
            data = root / "train.mol1"
            shutil.copy(dataset_path, data)
            shutil.copy(str(dataset_path) + ".json", str(data) + ".json")
            common = ["--dataset", str(data), "--seed", "2"]
            assert main(["mollify", "--out", str(root / "m")] + common) == 0
            assert main(["train", "--out", str(root / "t"), "--epochs", "1"] + common) == 0
            params = root / "t" / "params.bin"
            assert main(["eval", str(params), "--out", str(root / "e")] + common) == 0
            seen.append(
                {
                    "run.json": [_run_json(root / d)["config_hash"] for d in ("m", "t", "e")],
                    "eval.json": json.loads((root / "e" / "eval.json").read_text())["config_hash"],
                    "params.bin": load_params(params)[1]["config_hash"],
                    "mollified.mol1": load_mol1(root / "m" / "mollified.mol1").provenance,
                }
            )
            # run.json still shows the path it read
            assert _run_json(root / "e")["config"]["dataset"] == str(data)
        assert seen[0] == seen[1]
        hashes = seen[0]["run.json"]
        assert hashes[1] == seen[0]["params.bin"] and hashes[2] == seen[0]["eval.json"]
        assert seen[0]["mollified.mol1"] == f"mollify:{hashes[0]}"

    def test_dataset_content_changes_the_hash(self, dataset_path, tmp_path):
        data = tmp_path / "d.mol1"
        ds = load_mol1(dataset_path)
        ds.provenance = "another source"
        save_mol1(ds, data)
        hashes = []
        for path in (dataset_path, data):
            out = tmp_path / f"s{len(hashes)}"
            assert main(["spectra", "--dataset", str(path), "--out", str(out)]) == 0
            hashes.append(_run_json(out)["config_hash"])
        assert hashes[0] != hashes[1]

    @pytest.mark.parametrize(
        "command, unread, read",
        [
            ("eval", {"train": {"epochs": 3}}, {"bins": 10}),
            ("eval", {"schedule": {"k_noise": 2.0}, "t_steps": 5}, {"corruptions": True}),
            ("schedule-dump", {"seed": 9, "dataset": "elsewhere.mol1"}, {"schedule": {"k_noise": 2.0}}),
            ("infocurve", {"seed": 9, "bins": 3}, {"schedule": {"sigma_min": 0.5}}),
            ("spectra", {"train": {"lr": 0.5}, "schedule": {"sigma_max": 8.0}}, {"seed": 9}),
            ("train", {"bins": 3, "corruptions": True}, {"train": {"batch_size": 16}}),
        ],
    )
    def test_only_keys_the_command_reads_change_its_hash(
        self, dataset_path, trained, tmp_path, command, unread, read
    ):
        hashes = []
        for i, config in enumerate(({}, unread, read)):
            out = tmp_path / f"o{i}"
            argv = self._argv(command, dataset_path, trained, out)
            argv += ["--config", _write_config(tmp_path / f"c{i}.json", config)]
            assert main(argv) == 0
            hashes.append(_run_json(out)["config_hash"])
            assert set(_run_json(out)["config"]) == self.EXPECTED_KEYS[command]
        assert hashes[0] == hashes[1]
        assert hashes[0] != hashes[2]

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("schedule-dump", "--seed", "1"),
            ("infocurve", "--seed", "1"),
            ("infocurve", "--k-noise", "2"),
            ("schedule-dump", "--mode-probs", "1,0,0"),
        ],
    )
    def test_flag_of_an_unread_setting_is_a_usage_error(
        self, dataset_path, tmp_path, command, flag, value
    ):
        out = tmp_path / "o"
        argv = [command, "--out", str(out), flag, value]
        if command == "infocurve":
            argv += ["--dataset", str(dataset_path)]
        assert main(argv) == 2
        assert not out.exists()

    SCHEDULE_FLAGS = {"--k-noise", "--k-blur", "--beta-alpha", "--beta-beta", "--mode-probs"}
    EXPECTED_FLAGS = {
        "schedule-dump": {"--k-noise", "--k-blur", "--t-steps"},
        "mollify": {"--seed", "--dataset", *SCHEDULE_FLAGS},
        "train": {
            "--seed", "--dataset", *SCHEDULE_FLAGS,
            "--epochs", "--batch-size", "--lr", "--loss", "--mollify",
        },
        "eval": {"--seed", "--dataset", "--bins", "--corruptions"},
        "infocurve": {"--dataset", "--t-steps"},
        "spectra": {"--seed", "--dataset"},
        "make-datasets": {"--seed", "--train-count", "--test-count", "--fractal-count"},
        "study": {"--seeds", "--train-count", "--test-count", "--epochs"},
    }

    def test_each_command_takes_the_flags_of_the_settings_it_reads(self):
        commands = next(
            action.choices
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        for command, expected in self.EXPECTED_FLAGS.items():
            flags = {
                flag
                for action in commands[command]._actions
                for flag in action.option_strings
            }
            assert flags - {"-h", "--help", "--config", "--out"} == expected, command

    def test_infocurve_records_the_blur_range_and_grid_alone(self, dataset_path, tmp_path):
        out = tmp_path / "o"
        argv = ["infocurve", "--dataset", str(dataset_path), "--out", str(out), "--t-steps", "3"]
        assert main(argv) == 0
        assert _run_json(out)["config"] == {
            "dataset": str(dataset_path),
            "schedule": {"sigma_max": 16.0, "sigma_min": 0.3},
            "t_steps": 3,
        }


class TestConfigAndErrors:
    def test_config_file_with_flag_override(self, dataset_path, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"train": {"epochs": 2}, "seed": 11}))
        out = tmp_path / "t"
        code = main(
            [
                "train",
                "--config", str(cfg_path),
                "--dataset", str(dataset_path),
                "--out", str(out),
                "--batch-size", "24",
            ]
        )
        assert code == 0
        meta = json.loads((out / "run.json").read_text())
        assert meta["config"]["train"]["epochs"] == 2  # from file
        assert meta["config"]["train"]["batch_size"] == 24  # flag override
        assert meta["seed"] == 11

    def test_missing_dataset_is_data_error(self, tmp_path):
        assert main(
            ["train", "--dataset", str(tmp_path / "no.mol1"), "--out", str(tmp_path / "o")]
        ) == 3

    def test_usage_error_exit_code(self):
        assert main(["train"]) == 2  # missing required --out
        assert main(["not-a-command"]) == 2

    def test_diverged_training_exit_code(self, dataset_path, tmp_path, capsys):
        import numpy as np

        with np.errstate(all="ignore"):
            code = main(
                [
                    "train",
                    "--dataset", str(dataset_path),
                    "--out", str(tmp_path / "d"),
                    "--epochs", "3",
                    "--lr", "1e160",
                    "--mollify", "false",
                ]
            )
        assert code == 4

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("schedule-dump", "--k-noise", "nan"),
            ("mollify", "--k-blur", "inf"),
            ("train", "--lr", "nan"),
            ("mollify", "--mode-probs", "0.5,nan,0.5"),
        ],
    )
    def test_non_finite_flag_is_a_usage_error(
        self, dataset_path, tmp_path, capsys, command, flag, value
    ):
        out = tmp_path / "o"
        argv = [command, "--out", str(out), flag, value]
        if command != "schedule-dump":
            argv += ["--dataset", str(dataset_path)]
        assert main(argv) == 2
        assert f"argument {flag}: expected a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, value", [("mollify", "-1"), ("eval", "-7"), ("train", str(2**64))]
    )
    def test_seed_outside_u64_is_a_usage_error(
        self, dataset_path, tmp_path, capsys, command, value
    ):
        out = tmp_path / "o"
        argv = [command, "--dataset", str(dataset_path), "--out", str(out), "--seed", value]
        if command == "eval":
            argv.insert(1, str(tmp_path / "params.bin"))
        assert main(argv) == 2
        assert "argument --seed: expected an integer in [0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, text, kind",
        [
            ("--t-steps", "1_1", "an integer in [0, 2**64)"),
            ("--t-steps", " \u0663 ", "an integer in [0, 2**64)"),
            ("--k-noise", "0.0_1", "a finite number"),
        ],
    )
    def test_a_flag_that_int_or_float_would_take_is_a_usage_error(
        self, tmp_path, capsys, flag, text, kind
    ):
        out = tmp_path / "o"
        assert main(["schedule-dump", "--out", str(out), flag, text]) == 2
        assert f"argument {flag}: expected {kind}, got {text!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_and_float_flags_take_blanks_padding_and_exponents(self, tmp_path):
        out = tmp_path / "o"
        argv = ["schedule-dump", "--out", str(out), "--t-steps", " 007 ", "--k-noise", "+.5e1"]
        assert main(argv) == 0
        config = json.loads((out / "run.json").read_text())["config"]
        assert config["t_steps"] == 7 and config["schedule"]["k_noise"] == 5.0

    @pytest.mark.parametrize(
        "flags, config, field",
        [
            (["--batch-size", "0"], {}, "batch_size"),
            (["--epochs", "0"], {}, "epochs"),
            ([], {"train": {"hidden_units": 0}}, "hidden_units"),
            ([], {"train": {"samples_per_image": 0}}, "samples_per_image"),
        ],
    )
    def test_a_count_below_one_names_its_setting(
        self, dataset_path, tmp_path, capsys, flags, config, field
    ):
        out = tmp_path / "o"
        argv = ["train", "--dataset", str(dataset_path), "--out", str(out), *flags]
        argv += ["--config", _write_config(tmp_path / "c.json", config)]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {field} must be >= 1, got 0\n"
        assert not out.exists()

    # A setting too large for memory, such as --t-steps 100000000000, makes NumPy
    # raise MemoryError; it is raised here, not provoked, so nothing is allocated.
    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError("Unable to allocate 745. GiB"), "error: Unable to allocate 745. GiB\n"),
            (MemoryError(), "error: MemoryError\n"),
        ],
    )
    def test_memory_error_is_one_data_error_line(self, capsys, exc, line):
        def run():
            raise exc

        assert exit_code(run) == 3
        assert capsys.readouterr().err == line

    def test_no_command_mutates_dataset(self, dataset_path, tmp_path):
        before = dataset_path.read_bytes()
        main(["mollify", "--dataset", str(dataset_path), "--out", str(tmp_path / "m")])
        assert dataset_path.read_bytes() == before


def _write_config(path, config):
    path.write_text(json.dumps(config))
    return str(path)


class TestConfigSchema:
    @pytest.mark.parametrize(
        "config, key",
        [
            ({"train": {"epoch": 1}}, "train.epoch"),  # a typo of epochs
            ({"schedule": 5}, "schedule"),
            ({"train": {"momentum": 0.9}}, "train.momentum"),  # a removed knob
            ({"train": {"mollify": 1}}, "train.mollify"),
            ({"train": {"epochs": 2.0}}, "train.epochs"),
            ({"seed": True}, "seed"),
            ({"seed": -1}, "seed"),
            ({"seed": 2**64}, "seed"),
            ({"schedule": {"mode_probs": [0.5, "a", 0.5]}}, "schedule.mode_probs"),
            ({"schedule": {"mode_probs": 0.5}}, "schedule.mode_probs"),
            ({"dataset": 5}, "dataset"),
            ({"schedule": {"k_noise": float("nan")}}, "schedule.k_noise"),
            ({"train": {"lr": float("inf")}}, "train.lr"),
            # Integers of 401 digits, finite as ints but not as float64.
            ({"train": {"lr": 10**400}}, "train.lr"),
            ({"schedule": {"sigma_max": 10**400}}, "schedule.sigma_max"),
            ({"schedule": {"k_noise": -(10**400)}}, "schedule.k_noise"),
        ],
    )
    def test_rejects_with_key_path(self, dataset_path, tmp_path, capsys, config, key):
        out = tmp_path / "o"
        argv = ["train", "--config", _write_config(tmp_path / "c.json", config)]
        code = main(argv + ["--dataset", str(dataset_path), "--out", str(out)])
        assert code == 3
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"seed": ', " is not JSON"),
            (b"\xff\xfe", " row 1: not UTF-8 (invalid start byte at byte 0)\n"),
        ],
        ids=["truncated", "not-utf8"],
    )
    def test_config_that_is_not_json_names_the_file(
        self, dataset_path, tmp_path, capsys, content, message
    ):
        config = tmp_path / "c.json"
        config.write_bytes(content)
        out = tmp_path / "o"
        argv = ["train", "--config", str(config), "--dataset", str(dataset_path), "--out", str(out)]
        assert main(argv) == 3
        assert f"error: {config}{message}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_with_a_bom_reads_as_without(self, tmp_path):
        text = json.dumps({"schedule": {"k_noise": 2.0}, "t_steps": 5}).encode()
        outputs = []
        for i, bom in enumerate((b"", codecs.BOM_UTF8)):
            config = tmp_path / f"c{i}.json"
            config.write_bytes(bom + text)
            out = tmp_path / f"o{i}"
            assert main(["schedule-dump", "--config", str(config), "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes() for name in ("run.json", "schedules.csv")])
        assert outputs[0] == outputs[1]

    def test_config_that_repeats_a_key_names_the_file_and_key(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text('{"schedule": {"k_noise": 5.0, "k_noise": 1.0}}')
        out = tmp_path / "o"
        assert main(["schedule-dump", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {config}: key 'k_noise' appears twice in one object\n"
        assert not out.exists()

    def test_floats_accept_ints_and_null_defaults_accept_values(self, tmp_path):
        config = {"schedule": {"k_noise": 2, "sigma_max": 16}, "train": {"lr": 1}, "dataset": None}
        out = tmp_path / "o"
        argv = ["schedule-dump", "--config", _write_config(tmp_path / "c.json", config)]
        assert main(argv + ["--out", str(out)]) == 0
        meta = json.loads((out / "run.json").read_text())
        assert meta["config"]["schedule"]["k_noise"] == 2
        assert meta["config"]["schedule"]["sigma_max"] == 16

    def test_defaults_follow_the_config_dataclasses(self):
        from datamoll.schedules import ScheduleConfig
        from datamoll.trainer import TrainConfig

        assert _DEFAULTS["train"]["lr"] == TrainConfig.lr == 0.01
        assert _DEFAULTS["train"]["epochs"] == TrainConfig.epochs
        assert set(_DEFAULTS["train"]) == {
            "epochs", "batch_size", "lr", "hidden_units", "loss", "mollify", "samples_per_image"
        }
        assert _DEFAULTS["schedule"]["mode_probs"] == list(ScheduleConfig.mode_probs)
        assert _DEFAULTS["schedule"]["sigma_max"] is None

    def test_readme_configuration_table_restates_the_defaults(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = text.split("| key | default | meaning |\n| --- | --- | --- |\n", 1)[1]
        rows = {}
        for line in table.splitlines():
            if not line.startswith("| `"):
                break
            key, default = (cell.strip().strip("`") for cell in line.split("|")[1:3])
            rows[key] = default
        flat = {}
        for key, value in _DEFAULTS.items():
            if isinstance(value, dict):
                flat.update({f"{key}.{name}": inner for name, inner in value.items()})
            else:
                flat[key] = value
        assert list(rows) == list(flat)
        for key, default in rows.items():
            try:
                documented = json.loads(default)
            except ValueError:
                continue  # prose such as [1/3, 1/3, 1/3]
            assert documented == flat[key], key

    @pytest.mark.parametrize("config", [None, {"seed": 3}, {"schedule": {"k_noise": 2.0}}])
    def test_runs_leave_the_defaults_as_they_were(self, tmp_path, config):
        before = json.dumps(_DEFAULTS)
        argv = ["schedule-dump", "--out", str(tmp_path / "o"), "--k-blur", "3"]
        if config is not None:
            argv += ["--config", _write_config(tmp_path / "c.json", config)]
        assert main(argv) == 0
        assert _run_json(tmp_path / "o")["config"]["schedule"]["sigma_max"] == 32.0
        assert json.dumps(_DEFAULTS) == before

    @settings(max_examples=150, deadline=None)
    @given(
        path=st.sampled_from(
            [(key,) for key in _DEFAULTS]
            + [(block, key) for block in ("schedule", "train") for key in _DEFAULTS[block]]
        )
        | st.tuples(st.text(max_size=8))
        | st.tuples(st.sampled_from(["schedule", "train"]), st.text(max_size=8)),
        value=st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=8), inner, max_size=3),
            max_leaves=6,
        ),
    )
    def test_fuzzed_config_gives_success_or_data_error(self, path, value):
        config = value
        for key in reversed(path):
            config = {key: config}
        known = path[0] in _DEFAULTS and (len(path) == 1 or path[1] in _DEFAULTS[path[0]])
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["schedule-dump", "--config", _write_config(Path(tmp) / "c.json", config)]
            code = main(argv + ["--out", str(Path(tmp) / "o"), "--t-steps", "3"])
        assert code in (0, 3)
        if not known:
            assert code == 3


class TestBadFileFields:
    @pytest.fixture
    def files(self, tmp_path):
        raw, labels = grating_dataset(8, seed=2)
        data = tmp_path / "d.mol1"
        save_mol1(standardized_dataset(raw, labels, 4, provenance="fields"), data)
        params = tmp_path / "p.bin"
        zeros = MlpParams(np.zeros((8, 256)), np.zeros(8), np.zeros((4, 8)), np.zeros(4))
        save_params(zeros, params, seed=0, config_hash="fields")
        return data, params

    def _eval(self, data, params, tmp_path):
        return main(["eval", str(params), "--dataset", str(data), "--out", str(tmp_path / "e")])

    def test_intact_files_evaluate(self, files, tmp_path):
        assert self._eval(*files, tmp_path) == 0

    def test_non_finite_weight_names_the_file(self, files, tmp_path, capsys):
        data, params = files
        # save_params writes no inf, so the float32 bytes of w2[1, 2] are patched.
        raw = bytearray(params.read_bytes())
        at = 8 + int.from_bytes(raw[4:8], "little") + 4 * (8 * 256 + 8 + 1 * 8 + 2)
        raw[at : at + 4] = np.array(np.inf, dtype="<f4").tobytes()
        params.write_bytes(bytes(raw))
        assert self._eval(data, params, tmp_path) == 3
        assert capsys.readouterr().err == f"error: {params} holds non-finite values in 'w2'\n"

    @pytest.mark.parametrize("classes", [3, 6])
    def test_class_count_mismatch_names_both_counts(self, files, tmp_path, capsys, classes):
        data, params = files
        w2, b2 = np.zeros((classes, 8)), np.zeros(classes)
        save_params(MlpParams(np.zeros((8, 256)), np.zeros(8), w2, b2), params, 0, "classes")
        assert self._eval(data, params, tmp_path) == 3
        err = capsys.readouterr().err
        assert err == f"error: dataset has 4 classes, the weights {classes}\n"

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_zero_bins_rejected_before_the_run_starts(self, files, tmp_path, capsys, source):
        data, params = files
        out = tmp_path / "e"
        args = ["eval", str(params), "--dataset", str(data), "--out", str(out)]
        if source == "flag":
            args += ["--bins", "0"]
        else:
            config = tmp_path / "cfg.json"
            config.write_text('{"bins": 0}')
            args += ["--config", str(config)]
        assert main(args) == 3
        assert capsys.readouterr().err == "error: bins must be >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bins_past_2_53_rejected_before_the_run_starts(self, files, tmp_path, capsys, source):
        data, params = files
        out = tmp_path / "e"
        args = ["eval", str(params), "--dataset", str(data), "--out", str(out)]
        if source == "flag":
            args += ["--bins", str(2**53 + 1)]
        else:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"bins": 10**400}))
            args += ["--config", str(config)]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: bins must be <= 2**53, got ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("field", ["mean", "std"])
    def test_manifest_without_field(self, files, tmp_path, capsys, field):
        data, params = files
        manifest = Path(str(data) + ".json")
        content = json.loads(manifest.read_text())
        del content[field]
        manifest.write_text(json.dumps(content))
        assert self._eval(data, params, tmp_path) == 3
        err = capsys.readouterr().err
        assert str(manifest) in err and repr(field) in err

    @pytest.mark.parametrize("value", [{"a": 1}, [1, "2"], "12", [True]])
    def test_manifest_field_not_a_list_of_numbers(self, files, tmp_path, capsys, value):
        data, params = files
        manifest = Path(str(data) + ".json")
        content = json.loads(manifest.read_text())
        content["mean"] = value
        manifest.write_text(json.dumps(content))
        assert self._eval(data, params, tmp_path) == 3
        err = capsys.readouterr().err
        assert str(manifest) in err and "'mean'" in err

    def test_manifest_not_json(self, files, tmp_path, capsys):
        data, params = files
        manifest = Path(str(data) + ".json")
        manifest.write_text("{mean")
        assert self._eval(data, params, tmp_path) == 3
        assert f"{manifest} is not JSON: " in capsys.readouterr().err
        manifest.write_text("[1, 2]")
        assert self._eval(data, params, tmp_path) == 3
        assert f"{manifest} must hold a JSON object" in capsys.readouterr().err

    @staticmethod
    def _edit_header(params, edit):
        raw = params.read_bytes()
        head_len = int.from_bytes(raw[4:8], "little")
        header = json.loads(raw[8 : 8 + head_len])
        edit(header)
        head = json.dumps(header).encode()
        params.write_bytes(raw[:4] + len(head).to_bytes(4, "little") + head + raw[8 + head_len :])

    def test_params_header_without_shapes(self, files, tmp_path, capsys):
        data, params = files
        self._edit_header(params, lambda header: header.pop("shapes"))
        assert self._eval(data, params, tmp_path) == 3
        err = capsys.readouterr().err
        assert str(params) in err and "'shapes'" in err

    @pytest.mark.parametrize("shape", [[1.5], "ab", [[1]], [-1], [True], None])
    def test_params_header_with_bad_shape(self, files, tmp_path, capsys, shape):
        data, params = files
        self._edit_header(params, lambda header: header["shapes"].update(b2=shape))
        assert self._eval(data, params, tmp_path) == 3
        err = capsys.readouterr().err
        assert str(params) in err and "'shapes.b2'" in err

    def test_params_blob_size_must_match_header(self, files, tmp_path, capsys):
        data, params = files
        self._edit_header(params, lambda header: header["shapes"].update(b2=[5]))
        assert self._eval(data, params, tmp_path) == 3
        assert str(params) in capsys.readouterr().err

    # Each edit keeps the blob size of the 8-unit, 4-class net.
    @pytest.mark.parametrize(
        "shapes,field", [({"b1": [4], "b2": [8]}, "b1"), ({"w2": [32]}, "w2")]
    )
    def test_params_layer_shapes_must_agree(self, files, tmp_path, capsys, shapes, field):
        data, params = files
        self._edit_header(params, lambda header: header["shapes"].update(shapes))
        assert self._eval(data, params, tmp_path) == 3
        err = capsys.readouterr().err
        assert str(params) in err and f"'shapes.{field}'" in err


def _env_with_src(**extra) -> dict:
    """The environment with this datamoll's source first on PYTHONPATH, plus ``extra``."""
    src = str(Path(datamoll.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_python_dash_m_runs_the_cli():
    env = _env_with_src()
    proc = subprocess.run(
        [sys.executable, "-m", "datamoll", "--version"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"datamoll {datamoll.__version__}"


@pytest.mark.parametrize("loss", ["smoothed", "tempered", "normalized"])
def test_diverging_training_is_one_error_line_for_every_loss(loss, dataset_path, tmp_path):
    env = _env_with_src()
    argv = ["train", "--dataset", str(dataset_path), "--out", str(tmp_path), "--loss", loss]
    argv += ["--lr", "1e160", "--epochs", "3", "--batch-size", "16"]
    proc = subprocess.run(
        [sys.executable, "-m", "datamoll", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 4, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: non-finite ")


def test_weights_beyond_float32_are_one_error_line_and_no_file(tmp_path, capsys):
    raw, labels = grating_dataset(256, seed=1)
    data = tmp_path / "g.mol1"
    save_mol1(standardized_dataset(raw, labels, 4, provenance="grating"), data)
    out = tmp_path / "t"
    argv = ["train", "--dataset", str(data), "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + ["--lr", "1e8", "--epochs", "3", "--mollify", "false"])
    assert code == 4
    assert capsys.readouterr().err == "error: weights in 'w1' do not fit in float32\n"
    assert not (out / "params.bin").exists()


# Reads each kind of text file datamoll writes or takes in, with non-ASCII
# content, in a process whose locale encoding is ASCII.
_UTF8_SCRIPT = r"""
import json, sys
from pathlib import Path
import numpy as np
from datamoll.cli import main
from datamoll.metrics import predictions, read_records_csv, write_records_csv
from datamoll.mol1 import load_mol1, manifest_path, save_mol1
from datamoll.synth import grating_dataset, standardized_dataset

root = Path(sys.argv[1])
tag = "bruit-\u00e9"
preds = predictions(np.full((1, 2), 0.5), np.array([1]), np.array([tag]))
write_records_csv(preds, root / "rec.csv")
assert read_records_csv(root / "rec.csv").tag[0] == tag

src = root / "src"
src.mkdir()
(src / "img0.raw").write_bytes(bytes(4))
(src / "img1.raw").write_bytes(bytes([255]) * 4)
(src / "labels.csv").write_bytes("filename,\u00e9tiquette\nimg0.raw,0\nimg1.raw,1\n".encode())
shape = {"height": 2, "width": 2, "channels": 1, "note": tag}
(src / "shape.json").write_bytes(json.dumps(shape, ensure_ascii=False).encode())
assert main(["ingest", str(src), "--out", str(root / "in.mol1")]) == 0

config = root / "config.json"
settings = {"dataset": tag + ".mol1", "t_steps": 3}
config.write_bytes(json.dumps(settings, ensure_ascii=False).encode())
assert main(["schedule-dump", "--config", str(config), "--out", str(root / "dump")]) == 0

raw, labels = grating_dataset(2, seed=0)
save_mol1(standardized_dataset(raw, labels, 4, provenance=tag), root / "ds.mol1")
mpath = manifest_path(root / "ds.mol1")
mpath.write_bytes(json.dumps(json.loads(mpath.read_bytes()), ensure_ascii=False).encode())
assert load_mol1(root / "ds.mol1").provenance == tag
print("ok")
"""


def test_text_files_are_read_as_utf8_whatever_the_locale(tmp_path):
    env = _env_with_src(
        LC_ALL="C",
        PYTHONCOERCECLOCALE="0",
        PYTHONUTF8="0",
        PYTHONIOENCODING="ascii:backslashreplace",
    )
    proc = subprocess.run(
        [sys.executable, "-c", _UTF8_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "ok"
