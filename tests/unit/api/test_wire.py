"""Unit tests for the v2 columnar wire protocol."""

import json

import numpy as np
import pytest

from repro.api import wire
from repro.core import PrivateMisraGries
from repro.exceptions import SketchStateError
from repro.sketches import (
    MisraGriesSketch,
    StandardMisraGriesSketch,
    load_sketch,
    merge_many,
    merge_many_arrays,
    save_sketch,
)
from repro.sketches.misra_gries import DummyKey
from repro.streams import zipf_stream


def _json_roundtrip(payload):
    return json.loads(json.dumps(payload))


class TestSketchEnvelope:
    def test_integer_sketch_bit_exact(self):
        sketch = MisraGriesSketch.from_stream(32, zipf_stream(5_000, 300, rng=0))
        payload = _json_roundtrip(wire.encode_sketch(sketch))
        assert payload["format"] == wire.WIRE_FORMAT_VERSION
        assert payload["key_encoding"] == "int"
        restored = wire.payload_to_sketch(payload)
        assert restored.raw_counters() == sketch.raw_counters()
        assert restored.stream_length == sketch.stream_length
        assert restored.decrement_rounds == sketch.decrement_rounds

    def test_sketch_with_dummies_uses_tokens(self):
        sketch = MisraGriesSketch.from_stream(8, [1, 2, 3])  # 5 dummies remain
        payload = _json_roundtrip(wire.encode_sketch(sketch))
        assert payload["key_encoding"] == "token"
        restored = wire.payload_to_sketch(payload)
        assert restored.raw_counters() == sketch.raw_counters()
        assert sum(isinstance(key, DummyKey) for key in restored.raw_counters()) == 5

    def test_standard_sketch_roundtrip(self):
        sketch = StandardMisraGriesSketch.from_stream(8, zipf_stream(500, 40, rng=1))
        restored = wire.payload_to_sketch(_json_roundtrip(wire.encode_sketch(sketch)))
        assert isinstance(restored, StandardMisraGriesSketch)
        assert restored.counters() == sketch.counters()

    def test_restored_sketch_accepts_updates(self):
        stream = zipf_stream(1_000, 30, rng=2)
        sketch = MisraGriesSketch.from_stream(8, stream[:500])
        restored = wire.payload_to_sketch(_json_roundtrip(wire.encode_sketch(sketch)))
        restored.update_all(stream[500:])
        assert restored.counters() == MisraGriesSketch.from_stream(8, stream).counters()


class TestHistogramEnvelope:
    def test_bit_exact_roundtrip(self):
        sketch = MisraGriesSketch.from_stream(16, zipf_stream(5_000, 100, rng=3))
        histogram = PrivateMisraGries(epsilon=1.0, delta=1e-6).release(sketch, rng=4)
        restored = wire.payload_to_histogram(
            _json_roundtrip(wire.encode_histogram(histogram)))
        assert restored.as_dict() == histogram.as_dict()
        assert restored.metadata == histogram.metadata

    def test_wrong_kind_rejected(self):
        sketch = MisraGriesSketch.from_stream(4, [1, 1, 2])
        payload = wire.encode_sketch(sketch)
        with pytest.raises(SketchStateError):
            wire.payload_to_histogram(payload)


class TestCountersEnvelope:
    def test_mixed_keys_roundtrip(self):
        counters = {1: 2.0, "alpha": 3.5, b"\x00\xff": 1.25, "with:colon": 4.0}
        payload = _json_roundtrip(wire.encode_counters(counters, k=8, stream_length=11))
        decoded = wire.decode(payload)
        assert decoded.counters() == counters
        assert decoded.k == 8
        assert decoded.stream_length == 11
        assert decoded.key_array is None

    def test_int64_overflow_falls_back_to_tokens(self):
        counters = {2 ** 70: 1.0, 1: 2.0}
        payload = wire.encode_counters(counters)
        assert payload["key_encoding"] == "token"
        assert wire.decode(_json_roundtrip(payload)).counters() == counters

    def test_array_pair_encodes_like_its_dict(self):
        keys = np.array([42, -7, 3], dtype=np.int64)
        values = np.array([9.0, 4.5, 1.0], dtype=np.float64)
        from_arrays = wire.encode_counters((keys, values), k=8, stream_length=5)
        from_dict = wire.encode_counters(
            dict(zip(keys.tolist(), values.tolist())), k=8, stream_length=5)
        assert json.dumps(from_arrays) == json.dumps(from_dict)
        assert from_arrays["key_encoding"] == "int"
        assert all(type(key) is int for key in from_arrays["keys"])


class TestColumnarFastPath:
    def test_decode_produces_int_array_feeding_merge(self):
        streams = [zipf_stream(2_000, 200, rng=seed) for seed in (5, 6, 7)]
        sketches = [MisraGriesSketch.from_stream(32, stream) for stream in streams]
        payloads = [wire.decode(_json_roundtrip(wire.encode_counters(sketch)))
                    for sketch in sketches]
        keys_list, values_list = zip(*(payload.columnar() for payload in payloads))
        assert all(keys.dtype == np.int64 for keys in keys_list)
        merged = merge_many_arrays(list(keys_list), list(values_list), 32)
        assert merged == merge_many([sketch.counters() for sketch in sketches], 32)


class TestVersioning:
    def test_wire_version_detection(self):
        sketch = MisraGriesSketch.from_stream(4, [1, 2, 1])
        from repro.sketches.serialization import sketch_to_dict

        assert wire.wire_version(sketch_to_dict(sketch)) == 1
        assert wire.wire_version(wire.encode_sketch(sketch)) == 2
        with pytest.raises(SketchStateError):
            wire.wire_version({"format": 3})

    def test_decode_rejects_v1(self):
        from repro.sketches.serialization import sketch_to_dict

        with pytest.raises(SketchStateError):
            wire.decode(sketch_to_dict(MisraGriesSketch(2)))

    def test_malformed_columns_rejected(self):
        with pytest.raises(SketchStateError):
            wire.decode({"format": 2, "kind": "counters", "key_encoding": "int",
                         "keys": [1, 2], "values": [1.0]})

    def test_unknown_encoding_rejected(self):
        with pytest.raises(SketchStateError):
            wire.decode({"format": 2, "kind": "counters", "key_encoding": "base91",
                         "keys": [], "values": []})

    def test_unknown_version_error_names_supported_versions(self):
        """The error must tell the user what the library *does* speak."""
        with pytest.raises(SketchStateError) as excinfo:
            wire.wire_version({"format": 3})
        message = str(excinfo.value)
        assert "format: 3" in message
        assert "'format_version': 1" in message and "'format': 2" in message
        with pytest.raises(SketchStateError, match="declares no wire version"):
            wire.wire_version({"counters": {}})
        with pytest.raises(SketchStateError) as excinfo:
            wire.decode({"format": 99, "kind": "counters"})
        assert "supported versions" in str(excinfo.value)

    def test_load_payload_unknown_version_names_file_and_versions(self, tmp_path):
        target = tmp_path / "future.sketch.json"
        target.write_text(json.dumps({"format": 7, "kind": "counters",
                                      "keys": [], "values": []}))
        with pytest.raises(SketchStateError) as excinfo:
            wire.load_payload(target)
        message = str(excinfo.value)
        assert str(target) in message, "the failing file path must be named"
        assert "format: 7" in message
        assert "supported versions" in message

    def test_load_payload_versionless_file_names_path(self, tmp_path):
        target = tmp_path / "not-a-sketch.json"
        target.write_text(json.dumps({"counters": {"i:1": 2.0}}))
        with pytest.raises(SketchStateError) as excinfo:
            wire.load_payload(target)
        assert str(target) in str(excinfo.value)
        assert "declares no wire version" in str(excinfo.value)


def test_save_sketch_rejects_non_restorable_types(tmp_path):
    """save_sketch/load_sketch stay symmetric: non-MG sketches are refused."""
    from repro.exceptions import ParameterError
    from repro.sketches import CountMinSketch

    sketch = CountMinSketch(width=16, depth=2)
    sketch.update_all([1, 2, 3])
    with pytest.raises(ParameterError, match="encode_counters"):
        save_sketch(sketch, tmp_path / "cm.json")


class TestFileInterop:
    def test_save_v1_load_v2_default(self, tmp_path):
        """v1 files written by the old layout still load (cross-read)."""
        sketch = MisraGriesSketch.from_stream(16, zipf_stream(2_000, 100, rng=8))
        v1, v2 = tmp_path / "sketch.v1.json", tmp_path / "sketch.v2.json"
        save_sketch(sketch, v1, format="v1")
        save_sketch(sketch, v2, format="v2")
        assert json.loads(v1.read_text())["format_version"] == 1
        assert json.loads(v2.read_text())["format"] == 2
        restored_v1, restored_v2 = load_sketch(v1), load_sketch(v2)
        assert restored_v1.raw_counters() == sketch.raw_counters()
        assert restored_v2.raw_counters() == sketch.raw_counters()

    def test_load_payload_upconverts_v1(self, tmp_path):
        sketch = MisraGriesSketch.from_stream(16, zipf_stream(2_000, 100, rng=9))
        v1 = tmp_path / "sketch.v1.json"
        save_sketch(sketch, v1, format="v1")
        payload = wire.load_payload(v1)
        assert payload.kind == "misra_gries_paper"
        assert payload.stream_length == sketch.stream_length
