import codecs
import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from datamoll.errors import DataError
from datamoll.metrics import (
    MAX_BINS,
    _report,
    avg_nll,
    ece,
    error_rate,
    evaluate,
    format_report_table,
    predictions,
    read_records_csv,
    write_records_csv,
)
from tests.oracles import brute_force_ece


def repeated(probs, true_class, times=1, tag=""):
    """``times`` identical prediction rows."""
    return predictions([probs] * times, [true_class] * times, tag)


def join(*parts):
    return np.concatenate(parts)


def random_records(rng, n, c=4):
    rows, classes = [], []
    for _ in range(n):
        rows.append(rng.dirichlet(np.ones(c) * rng.uniform(0.3, 3.0)))
        classes.append(int(rng.integers(0, c)))
    return predictions(rows, classes)


class TestErrorRate:
    def test_all_correct(self):
        recs = repeated([0.9, 0.1], 0, 5)
        assert error_rate(recs) == 0.0

    def test_all_wrong(self):
        recs = repeated([0.9, 0.1], 1, 5)
        assert error_rate(recs) == 1.0

    def test_counting(self):
        recs = join(repeated([0.9, 0.1], 0, 7), repeated([0.9, 0.1], 1, 3))
        assert error_rate(recs) == approx(0.3)

    def test_tie_broken_by_lowest_index(self):
        recs = predictions([[0.5, 0.5], [0.5, 0.5]], [0, 1])
        assert error_rate(recs) == approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            error_rate(predictions(np.zeros((0, 2)), []))


class TestAvgNll:
    def test_perfect(self):
        assert avg_nll(repeated([1.0, 0.0], 0)) == 0.0

    def test_uniform(self):
        recs = repeated(np.full(10, 0.1), 3, 4)
        assert avg_nll(recs) == approx(math.log(10.0))

    def test_two_records(self):
        recs = predictions([[0.5, 0.5], [0.25, 0.75]], [0, 0])
        assert avg_nll(recs) == approx((math.log(2.0) + math.log(4.0)) / 2.0)
        assert avg_nll(recs) == approx(1.039721, abs=1e-6)

    def test_floor_keeps_finite(self):
        recs = repeated([1.0, 0.0], 1)
        assert avg_nll(recs) == approx(-math.log(1e-12))


class TestEce:
    def test_confident_and_correct(self):
        recs = repeated([1.0, 0.0], 0, 10)
        assert ece(recs) == 0.0

    def test_single_bin_gap(self):
        recs = join(repeated([0.8, 0.2], 0, 5), repeated([0.8, 0.2], 1, 5))
        assert ece(recs) == approx(0.3, abs=1e-12)

    def test_matches_brute_force_small(self):
        rng = np.random.default_rng(5)
        recs = random_records(rng, 10)
        assert ece(recs, 15) == approx(brute_force_ece(recs, 15), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**31), bins=st.integers(1, 25), n=st.integers(1, 40))
    def test_matches_brute_force(self, seed, bins, n):
        rng = np.random.default_rng(seed)
        recs = random_records(rng, n)
        assert ece(recs, bins) == approx(brute_force_ece(recs, bins), abs=1e-12)

    def test_single_bin_identity(self):
        rng = np.random.default_rng(6)
        recs = random_records(rng, 50)
        acc = 1.0 - error_rate(recs)
        conf = float(np.mean([r.probs.max() for r in recs]))
        assert ece(recs, 1) == approx(abs(acc - conf), abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        recs = random_records(rng, 64)
        shuffled = recs[rng.permutation(len(recs))]
        assert ece(recs) == approx(ece(shuffled), abs=1e-15)

    def test_bad_bins(self):
        with pytest.raises(ValueError):
            ece(repeated([1.0, 0.0], 0), 0)


class TestEceBinning:
    @pytest.mark.parametrize("bins", [1, 2, 3, 7, 10, 15, 100])
    def test_confidences_on_and_beside_the_edges_match_brute_force(self, bins):
        # Confidence k/bins, and the floats either side of it, for every edge k;
        # the other bins + 1 classes share the rest, each below the confidence.
        edges = np.arange(1, bins + 1) / bins
        conf = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges[:-1], 1.0)])
        rest = (1.0 - conf) / (bins + 1)
        probs = np.column_stack([conf, *[rest] * (bins + 1)])
        recs = predictions(probs, np.arange(len(conf)) % 2)
        assert ece(recs, bins) == approx(brute_force_ece(recs, bins), abs=1e-15)

    def test_a_trillion_bins_put_each_distinct_confidence_in_its_own_bin(self):
        recs = random_records(np.random.default_rng(9), 200)
        conf = recs["probs"].max(axis=1)
        assert np.diff(np.sort(conf)).min() > 1e-12
        hits = recs["probs"].argmax(axis=1) == recs["true_class"]
        assert ece(recs, 10**12) == approx(np.abs(hits - conf).mean(), abs=1e-15)

    @pytest.mark.parametrize("bins", [0, -1, 2**53 + 1])
    def test_bins_outside_1_to_2_53_are_value_errors(self, bins):
        with pytest.raises(ValueError, match=r"num_bins must be in \[1, 2\*\*53\]"):
            ece(repeated([1.0, 0.0], 0), bins)

    def test_2_53_bins_is_in_range(self):
        assert MAX_BINS == 2**53
        assert ece(repeated([0.75, 0.25], 0, 4), 2**53) == approx(0.25, abs=1e-15)


class TestMeanDecomposition:
    def test_concatenation_weighted_average(self):
        rng = np.random.default_rng(8)
        a = random_records(rng, 30)
        b = random_records(rng, 50)
        both = join(a, b)
        for metric in (error_rate, avg_nll):
            combined = metric(both)
            expected = (30 * metric(a) + 50 * metric(b)) / 80
            assert combined == approx(expected, abs=1e-12)


class TestEvaluateAndIo:
    def test_evaluate_with_tags(self):
        recs = join(repeated([0.9, 0.1], 0, 4, "clean"), repeated([0.6, 0.4], 1, 6, "noisy"))
        rep = evaluate(recs)
        assert rep["count"] == 10
        assert set(rep["per_tag"]) == {"clean", "noisy"}
        assert rep["per_tag"]["clean"]["error"] == 0.0
        assert rep["per_tag"]["noisy"]["error"] == 1.0
        table = format_report_table(rep)
        assert "clean" in table and "noisy" in table

    @pytest.mark.parametrize("num_bins", [1, 15, 1000])
    def test_per_tag_reports_equal_those_of_each_tags_mask(self, num_bins):
        # Tags interleave, so a sort that reordered a tag's records would change
        # avg_nll's ordered sum and ECE's grouped sums.
        rng = np.random.default_rng(8)
        probs = rng.dirichlet(np.full(4, 0.7), size=3000)
        tags = np.array(["a", "b", "a", "c", "b", "a", "d"])[np.arange(3000) % 7]
        recs = predictions(probs, rng.integers(0, 4, 3000), tags)
        per_tag = evaluate(recs, num_bins)["per_tag"]
        assert list(per_tag) == ["a", "b", "c", "d"]
        for tag, report in per_tag.items():
            assert report == _report(recs[tags == tag], num_bins), tag

    def test_one_tag_gets_no_copy_of_the_report(self):
        rep = evaluate(repeated([0.9, 0.1], 0, 4, "clean"))
        assert "per_tag" not in rep
        assert format_report_table(rep, title="clean").count("clean") == 1

    def test_report_is_json_native(self):
        recs = join(repeated([0.9, 0.1], 0, 4, "clean"), repeated([0.6, 0.4], 1, 6, "noisy"))
        rep = evaluate(recs)
        assert json.loads(json.dumps(rep)) == rep
        assert type(rep["count"]) is int
        assert all(type(sub["count"]) is int for sub in rep["per_tag"].values())

    def test_evaluate_rejects_no_records(self):
        with pytest.raises(DataError, match="empty record set"):
            evaluate(predictions(np.zeros((0, 2)), []))

    def test_invariants_of_report(self):
        rng = np.random.default_rng(9)
        rep = evaluate(random_records(rng, 40))
        assert 0.0 <= rep["error"] <= 1.0
        assert 0.0 <= rep["ece"] <= 1.0
        assert rep["nll"] >= 0.0

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        recs = random_records(rng, 12)
        recs = join(repeated(recs[0].probs, recs[0].true_class, tag="noise-3"), recs[1:])
        path = tmp_path / "records.csv"
        write_records_csv(recs, path)
        back = read_records_csv(path)
        assert len(back) == len(recs)
        assert np.array_equal(back.probs, recs["probs"])
        assert np.array_equal(back.true_class, recs["true_class"])
        assert np.array_equal(back.tag, recs["tag"])

    def test_csv_with_a_bom_reads_back_equal(self, tmp_path):
        recs = random_records(np.random.default_rng(12), 6)
        path = tmp_path / "records.csv"
        write_records_csv(recs, path)
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        back = read_records_csv(path)
        assert np.array_equal(back.probs, recs["probs"])
        assert np.array_equal(back.true_class, recs["true_class"])
        assert np.array_equal(back.tag, recs["tag"])

    def test_csv_bytes_are_those_of_csv_writer(self, tmp_path):
        rng = np.random.default_rng(11)
        recs = random_records(rng, 7, c=3)
        tags = np.array(["clean", "a,b", 'say "x"', "", " lead", "two\nlines", "é-5"])
        recs = predictions(recs["probs"], recs["true_class"], tags)
        path = tmp_path / "records.csv"
        write_records_csv(recs, path)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["index", "tag", "true_class", "p0", "p1", "p2"])
        for i, (tag, cls, probs) in enumerate(zip(tags.tolist(), recs["true_class"], recs["probs"])):
            writer.writerow([i, tag, int(cls), *probs.tolist()])
        assert path.read_bytes() == buf.getvalue().encode("utf-8")
        assert np.array_equal(read_records_csv(path).tag, tags)

    def test_record_validation(self):
        with pytest.raises(DataError):
            repeated([0.7, 0.7], 0)
        with pytest.raises(DataError):
            repeated([1.2, -0.2], 0)
        with pytest.raises(DataError):
            repeated([0.5, 0.5], 2)


class TestReadRecordsCsvInput:
    def write(self, tmp_path, text):
        path = tmp_path / "records.csv"
        path.write_text(text)
        return path

    @pytest.mark.parametrize(
        "rows",
        [
            ["0,a,0,0.5,0.5", "1,a,0,0.2,0.3,0.5"],
            ["0,a,0,0.2,0.3,0.5", "1,a,0,0.2,0.3,0.5"],  # more classes than the header
        ],
    )
    def test_rows_with_other_class_counts_rejected(self, tmp_path, rows):
        text = "\n".join(["index,tag,true_class,p0,p1"] + rows) + "\n"
        with pytest.raises(DataError):
            read_records_csv(self.write(tmp_path, text))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "index,tag\n",
            "index,tag,true_class,p0,p1\n",
            "index,tag,true_class,p0\n0,a,0,1.0\n",
            "index,tag,true_class,p0,p1\n0,a,x,0.5,0.5\n",
            "index,tag,true_class,p0,p1\n0,a,0,0.5,y\n",
            "index,tag,true_class,p0,p1\n0,a,99999999999999999999999,0.5,0.5\n",
            "index,tag,true_class,p0,p1\n0,a,0,nan,0.5\n",
        ],
    )
    def test_malformed_files_rejected(self, tmp_path, text):
        with pytest.raises(DataError):
            read_records_csv(self.write(tmp_path, text))

    # A row is numbered by its line in the file, the header's being row 1, as
    # ioutil numbers the line that is not UTF-8.
    @pytest.mark.parametrize(
        "third, message",
        [
            (b"1,a,0,0.5", "row 3 has 4 fields, its header 5"),
            (b"1,\xff,0,0.5,0.5", "row 3: not UTF-8"),
        ],
    )
    def test_rows_are_numbered_by_file_line(self, tmp_path, third, message):
        path = tmp_path / "records.csv"
        path.write_bytes(b"index,tag,true_class,p0,p1\n0,a,0,0.5,0.5\n" + third + b"\n")
        with pytest.raises(DataError, match=re.escape(f"{path} {message}")):
            read_records_csv(path)

    def test_a_row_after_a_tag_spanning_lines_is_named_by_its_file_line(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_bytes(b'index,tag,true_class,p0,p1\n0,"a\nb",0,0.5,0.5\n1,a,0,0.5\n')
        with pytest.raises(DataError, match=re.escape(f"{path} row 4 has 4 fields, its header 5")):
            read_records_csv(path)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.lists(
                st.sampled_from(["0", "1", "2", "-1", "0.5", "0.25", "1.0", "1e-3", "x", "", "a b"]),
                min_size=0,
                max_size=6,
            ),
            max_size=5,
        ),
        classes=st.integers(0, 3),
    )
    def test_fuzzed_file_reads_or_raises_data_error(self, rows, classes):
        header = ["index", "tag", "true_class"] + [f"p{i}" for i in range(classes)]
        text = "\n".join(",".join(row) for row in [header] + rows) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.csv"
            path.write_text(text)
            try:
                back = read_records_csv(path)
            except DataError:
                return
        assert len(back) == len(rows) and all(len(row) == len(header) for row in rows)
        assert np.allclose(back.probs.sum(axis=1), 1.0, atol=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(body=st.text(max_size=120))
    def test_fuzzed_text_reads_or_raises_data_error(self, body):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.csv"
            path.write_text("index,tag,true_class,p0,p1\n" + body)
            try:
                back = read_records_csv(path)
            except DataError:
                return
        assert back.probs.shape == (len(back), 2)
