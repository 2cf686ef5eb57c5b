import json
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from datamoll.errors import DataError
from datamoll.mol1 import MAGIC, Mol1Dataset, load_mol1, manifest_path, save_mol1
from datamoll.tensors import ChannelStats
from tests.strategies import JSON_VALUES


def make_dataset(rng, n=6, h=4, w=5, c=2, classes=3):
    return Mol1Dataset(
        images=rng.standard_normal((n, h, w, c)),
        labels=rng.integers(0, classes, n),
        num_classes=classes,
        stats=ChannelStats(mean=rng.standard_normal(c), std=rng.uniform(0.5, 2.0, c)),
        provenance="test",
    )


class TestRoundtrip:
    def test_save_load_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = make_dataset(rng)
        path = tmp_path / "data.mol1"
        save_mol1(ds, path)
        back = load_mol1(path)
        assert back.images.shape == ds.images.shape
        assert np.array_equal(back.images, ds.images.astype(np.float32).astype(np.float64))
        assert np.array_equal(back.labels, ds.labels)
        assert back.num_classes == ds.num_classes
        assert back.provenance == "test"
        assert back.stats.mean == pytest.approx(ds.stats.mean)

    def test_save_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = make_dataset(rng)
        save_mol1(ds, tmp_path / "a.mol1")
        save_mol1(ds, tmp_path / "b.mol1")
        assert (tmp_path / "a.mol1").read_bytes() == (tmp_path / "b.mol1").read_bytes()

    def test_layout(self, tmp_path):
        ds = Mol1Dataset(
            images=np.zeros((2, 1, 1, 1)),
            labels=np.array([0, 1]),
            num_classes=2,
            stats=ChannelStats(mean=np.zeros(1), std=np.ones(1)),
        )
        path = tmp_path / "tiny.mol1"
        save_mol1(ds, path)
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        assert len(raw) == 4 + 20 + 2 * 4 + 2 * 4  # magic, header, pixels, labels


class TestValidation:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mol1"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(DataError):
            load_mol1(path)

    def test_truncated_file(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "t.mol1"
        save_mol1(make_dataset(rng), path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(DataError):
            load_mol1(path)

    def test_missing_manifest(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "m.mol1"
        save_mol1(make_dataset(rng), path)
        manifest_path(path).unlink()
        with pytest.raises(DataError):
            load_mol1(path)

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            Mol1Dataset(
                images=np.zeros((1, 2, 2, 1)),
                labels=np.array([5]),
                num_classes=2,
                stats=ChannelStats(mean=np.zeros(1), std=np.ones(1)),
            )

    def test_empty_dataset(self):
        with pytest.raises(DataError):
            Mol1Dataset(
                images=np.zeros((0, 2, 2, 1)),
                labels=np.zeros(0, dtype=int),
                num_classes=2,
                stats=ChannelStats(mean=np.zeros(1), std=np.ones(1)),
            )

    def test_the_class_count_is_bounded_by_its_u32_header_field(self, tmp_path):
        def dataset(num_classes):
            stats = ChannelStats(mean=np.zeros(1), std=np.ones(1))
            return Mol1Dataset(np.zeros((1, 1, 1, 1)), np.array([1]), num_classes, stats)

        save_mol1(dataset(2**32 - 1), tmp_path / "max.mol1")
        assert load_mol1(tmp_path / "max.mol1").num_classes == 2**32 - 1
        with pytest.raises(DataError, match=r"num_classes must be in \[2, 4294967295\], got 4294967296"):
            dataset(2**32)

    def test_manifest_contents(self, tmp_path):
        rng = np.random.default_rng(4)
        ds = make_dataset(rng)
        path = tmp_path / "d.mol1"
        save_mol1(ds, path)
        manifest = json.loads(manifest_path(path).read_text())
        assert set(manifest) == {"mean", "std", "provenance"}
        assert len(manifest["mean"]) == ds.channels

    @pytest.mark.parametrize("pixel", [1e39, -1e39, np.finfo(np.float64).max])
    def test_pixel_beyond_float32_is_refused_without_a_file(self, tmp_path, pixel):
        ds = make_dataset(np.random.default_rng(7))
        ds.images[2, 1, 3, 0] = pixel
        path = tmp_path / "big.mol1"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="big.mol1"):
                save_mol1(ds, path)
        assert list(tmp_path.iterdir()) == []

    def test_largest_float32_pixel_round_trips(self, tmp_path):
        ds = make_dataset(np.random.default_rng(8))
        ds.images[0, 0, 0, 0] = np.finfo(np.float32).max
        save_mol1(ds, tmp_path / "max.mol1")
        assert load_mol1(tmp_path / "max.mol1").images[0, 0, 0, 0] == np.finfo(np.float32).max

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({24: struct.pack("<f", np.nan)}, "images contain non-finite values"),
            ({32: struct.pack("<I", 2)}, "labels must lie in [0, num_classes)"),
            ({20: struct.pack("<I", 1)}, "num_classes must be in [2, 4294967295], got 1"),
            (
                {"mean": [0.0, 0.0], "std": [1.0, 1.0]},
                "channel statistics do not match the image channel count",
            ),
            ({"std": [0.0]}, "channel std must be strictly positive"),
            ({"mean": [0.0, 0.0]}, "mean/std must be matching 1-D vectors, got (2,) and (1,)"),
            ({4: struct.pack("<5I", 0, 1, 1, 1, 2), 24: None}, "dataset is empty"),
        ],
        ids=[
            "nan-pixel", "label-out-of-range", "one-class", "channel-count", "zero-std",
            "mean-std-shapes", "empty",
        ],
    )
    def test_load_errors_name_the_file(self, tmp_path, edit, message):
        # A valid container of two 1x1x1 images and two classes, then one edit:
        # bytes written at an offset (None cuts the file there), or manifest fields.
        path = tmp_path / "d.mol1"
        save_mol1(
            Mol1Dataset(np.zeros((2, 1, 1, 1)), np.array([0, 1]), 2, ChannelStats([0.0], [1.0])),
            path,
        )
        raw = bytearray(path.read_bytes())
        manifest = json.loads(manifest_path(path).read_text())
        for key, value in edit.items():
            if key in manifest:
                manifest[key] = value
            elif value is None:
                del raw[key:]
            else:
                raw[key : key + len(value)] = value
        path.write_bytes(bytes(raw))
        manifest_path(path).write_text(json.dumps(manifest))
        with pytest.raises(DataError) as excinfo:
            load_mol1(path)
        assert str(excinfo.value) == f"{path}: {message}"



def _loads_or_data_error(path):
    try:
        return load_mol1(path)
    except DataError:
        return None


class TestFuzzedFiles:
    @settings(max_examples=200, deadline=None)
    @given(
        manifest=st.fixed_dictionaries(
            {},
            optional={
                "mean": JSON_VALUES | st.lists(st.integers() | st.floats(), max_size=3),
                "std": JSON_VALUES | st.lists(st.integers() | st.floats(), max_size=3),
                "provenance": JSON_VALUES,
            },
        )
        | JSON_VALUES
    )
    def test_fuzzed_manifest_loads_or_raises_data_error(self, manifest):
        ds = make_dataset(np.random.default_rng(5), c=2)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.mol1"
            save_mol1(ds, path)
            manifest_path(path).write_text(json.dumps(manifest))
            loaded = _loads_or_data_error(path)
        if loaded is not None:
            assert loaded.stats.channels == 2

    @settings(max_examples=200, deadline=None)
    @given(
        header=st.tuples(*[st.integers(0, 3)] * 5) | st.tuples(*[st.integers(0, 2**32 - 1)] * 5),
        body=st.binary(max_size=96),
    )
    # An empty container whose dims NumPy cannot reshape to.
    @example(header=(0, 17135, 17135, 3926734358, 0), body=b"")
    def test_fuzzed_container_loads_or_raises_data_error(self, header, body):
        ds = make_dataset(np.random.default_rng(6), c=1)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.mol1"
            save_mol1(ds, path)
            path.write_bytes(MAGIC + struct.pack("<5I", *header) + body)
            loaded = _loads_or_data_error(path)
        if loaded is not None:
            assert loaded.images.shape == tuple(header[:4])
