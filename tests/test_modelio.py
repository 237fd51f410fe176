import hashlib
import json

import numpy as np
import pytest

from satavit import ModelConfig
from satavit.modelio import (
    ChecksumError,
    SchemaError,
    load_model,
    model_checksum,
    random_init,
    save_model,
    tensor_schema,
)
from satavit.rng import SplitMix64

CFG = ModelConfig(depth=2, dim=8, heads=2, patch=2, image=8, num_classes=4)


def scalar_splitmix64(seed, n):
    mask = (1 << 64) - 1
    out = []
    state = seed & mask
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestSplitMix64:
    def test_matches_scalar_reference(self):
        for seed in (0, 1, 42, 2**63 + 17):
            got = SplitMix64(seed).next_uint64(16).tolist()
            assert got == scalar_splitmix64(seed, 16)

    def test_known_answer_seed_zero(self):
        got = SplitMix64(0).next_uint64(3).tolist()
        assert got == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_stream_continuation(self):
        g = SplitMix64(7)
        first = g.next_uint64(5).tolist()
        second = g.next_uint64(5).tolist()
        assert first + second == SplitMix64(7).next_uint64(10).tolist()

    def test_uniform_in_half_open_range(self):
        u = SplitMix64(3).uniform(50000)
        assert u.min() > 0.0 and u.max() <= 1.0

    def test_normal_moments(self):
        z = SplitMix64(4).normal(100001)
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_spawn_streams_differ(self):
        g = SplitMix64(5)
        a = g.spawn(0).next_uint64(4).tolist()
        b = g.spawn(1).next_uint64(4).tolist()
        assert a != b


class TestRandomInit:
    def test_same_seed_same_checksum(self):
        a = random_init(CFG, 42)
        b = random_init(CFG, 42)
        assert model_checksum(a) == model_checksum(b)

    def test_different_seeds_differ(self):
        assert model_checksum(random_init(CFG, 1)) != model_checksum(random_init(CFG, 2))

    def test_scaled_normal_std(self):
        model = random_init(CFG, 7)
        entries = np.concatenate([
            model.params[name].ravel()
            for name, _ in tensor_schema(CFG)
            if ".ln" not in name and not name.startswith("final_norm.")
        ])
        want = 1.0 / np.sqrt(8.0)  # 0.3536 for dim 8
        assert abs(entries.std() - want) / want < 0.2

    def test_norm_affines_identity(self):
        model = random_init(CFG, 7)
        assert np.array_equal(model.params["block0.ln1.gain"], np.ones(8))
        assert np.array_equal(model.params["block1.ln2.bias"], np.zeros(8))
        assert np.array_equal(model.params["final_norm.gain"], np.ones(8))

    def test_schema_complete(self):
        model = random_init(CFG, 7)
        for name, shape in tensor_schema(CFG):
            assert model.params[name].shape == shape
        assert len(model.params) == len(tensor_schema(CFG))


class TestSaveLoad:
    def test_roundtrip_bitwise(self, tmp_path):
        model = random_init(CFG, 11)
        save_model(model, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        assert loaded.config == model.config
        for name in model.params:
            assert np.array_equal(loaded.params[name], model.params[name]), name
        assert model_checksum(loaded) == model_checksum(model)

    def test_params_are_read_only_and_bitwise_equal(self, tmp_path):
        model = random_init(CFG, 11)
        save_model(model, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        for name, arr in loaded.params.items():
            assert not arr.flags.writeable, name
            assert arr.tobytes() == model.params[name].tobytes(), name
        with pytest.raises(ValueError, match="read-only"):
            loaded.params["block0.ffn.w1"][0, 0] = 1.0

    def test_offsets_off_the_8_byte_grid_load_the_same_values(self, tmp_path):
        model = random_init(CFG, 11)
        save_model(model, tmp_path / "m")
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        # three pad bytes put every tensor at an odd offset
        blob = b"pad" + (tmp_path / "m.weights.bin").read_bytes()
        for entry in manifest["tensors"]:
            entry["offset"] += 3
        manifest["checksum"] = hashlib.blake2b(blob, digest_size=8).hexdigest()
        (tmp_path / "m.weights.bin").write_bytes(blob)
        (tmp_path / "m.manifest.json").write_text(json.dumps(manifest))
        loaded = load_model(tmp_path / "m")
        for name, arr in loaded.params.items():
            assert arr.flags.aligned and not arr.flags.writeable, name
            assert arr.tobytes() == model.params[name].tobytes(), name

    def test_stem_resolution(self, tmp_path):
        model = random_init(CFG, 11)
        save_model(model, tmp_path / "m")
        assert (tmp_path / "m.manifest.json").exists()
        assert (tmp_path / "m.weights.bin").exists()
        loaded = load_model(tmp_path / "m.manifest.json")
        assert model_checksum(loaded) == model_checksum(model)

    def test_truncated_blob_is_corruption_error(self, tmp_path):
        model = random_init(CFG, 11)
        save_model(model, tmp_path / "m")
        blob = (tmp_path / "m.weights.bin").read_bytes()
        (tmp_path / "m.weights.bin").write_bytes(blob[:-16])
        with pytest.raises(ChecksumError, match="checksum"):
            load_model(tmp_path / "m")

    def test_flipped_byte_is_corruption_error(self, tmp_path):
        model = random_init(CFG, 11)
        save_model(model, tmp_path / "m")
        blob = bytearray((tmp_path / "m.weights.bin").read_bytes())
        blob[100] ^= 0xFF
        (tmp_path / "m.weights.bin").write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            load_model(tmp_path / "m")

    def test_missing_tensor_is_schema_error(self, tmp_path):
        model = random_init(CFG, 11)
        save_model(model, tmp_path / "m")
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        manifest["tensors"] = [
            e for e in manifest["tensors"] if e["name"] != "block0.ffn.w1"
        ]
        (tmp_path / "m.manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match="block0.ffn.w1"):
            load_model(tmp_path / "m")

    def test_unknown_tensor_is_schema_error(self, tmp_path):
        model = random_init(CFG, 11)
        save_model(model, tmp_path / "m")
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        manifest["tensors"].append({"name": "block9.bogus", "shape": [1], "offset": 0})
        (tmp_path / "m.manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match="bogus"):
            load_model(tmp_path / "m")

    def test_out_of_bounds_offset_is_schema_error(self, tmp_path):
        model = random_init(CFG, 11)
        save_model(model, tmp_path / "m")
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        manifest["tensors"][0]["offset"] = 10**9
        (tmp_path / "m.manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match="outside"):
            load_model(tmp_path / "m")

    def test_overlapping_offsets_are_schema_error(self, tmp_path):
        model = random_init(CFG, 11)
        save_model(model, tmp_path / "m")
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        # point the second tensor into the middle of the first
        manifest["tensors"][1]["offset"] = 8
        (tmp_path / "m.manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match="overlap"):
            load_model(tmp_path / "m")

    @pytest.mark.parametrize("edit", [
        lambda m: m["tensors"].__setitem__(0, 3),
        lambda m: m["tensors"][0].pop("name"),
        lambda m: m["tensors"][0].pop("shape"),
        lambda m: m["tensors"][0].pop("offset"),
        lambda m: m["tensors"][0].__setitem__("offset", "0"),
        lambda m: m["tensors"][0].__setitem__("offset", True),
        lambda m: m.__setitem__("tensors", 5),
    ], ids=["int-entry", "no-name", "no-shape", "no-offset", "str-offset", "bool-offset",
            "int-tensors"])
    def test_malformed_entry_is_schema_error(self, tmp_path, edit):
        save_model(random_init(CFG, 11), tmp_path / "m")
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        edit(manifest)
        (tmp_path / "m.manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match="tensors"):
            load_model(tmp_path / "m")

    def test_manifest_not_an_object_is_schema_error(self, tmp_path):
        save_model(random_init(CFG, 11), tmp_path / "m")
        (tmp_path / "m.manifest.json").write_text("[]")
        with pytest.raises(SchemaError, match="JSON object"):
            load_model(tmp_path / "m")

    def test_missing_files_surface_path(self, tmp_path):
        with pytest.raises(OSError, match="nowhere"):
            load_model(tmp_path / "nowhere")
