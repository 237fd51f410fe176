import hashlib
import json

import numpy as np
import pytest

from satavit import ModelConfig
from satavit.modelio import (
    ChecksumError,
    Model,
    SchemaError,
    attn_view,
    embed_view,
    ffn_view,
    head_view,
    load_model,
    model_checksum,
    random_init,
    save_model,
    tensor_schema,
)
from satavit.rng import SplitMix64

CFG = ModelConfig(depth=2, dim=8, heads=2, patch=2, image=8, num_classes=4)

# the blob layout of CFG, written out: a reordered or renamed tensor changes it
CFG_SCHEMA = [
    ("patch_embed.weight", (4, 8)),
    ("patch_embed.bias", (8,)),
    ("class_token", (8,)),
    ("pos_embed", (17, 8)),
    *[
        entry
        for i in range(2)
        for entry in [
            (f"block{i}.ln1.gain", (8,)),
            (f"block{i}.ln1.bias", (8,)),
            (f"block{i}.attn.wq", (8, 8)),
            (f"block{i}.attn.bq", (8,)),
            (f"block{i}.attn.wk", (8, 8)),
            (f"block{i}.attn.bk", (8,)),
            (f"block{i}.attn.wv", (8, 8)),
            (f"block{i}.attn.bv", (8,)),
            (f"block{i}.attn.wo", (8, 8)),
            (f"block{i}.attn.bo", (8,)),
            (f"block{i}.ln2.gain", (8,)),
            (f"block{i}.ln2.bias", (8,)),
            (f"block{i}.ffn.w1", (8, 32)),
            (f"block{i}.ffn.b1", (32,)),
            (f"block{i}.ffn.w2", (32, 8)),
            (f"block{i}.ffn.b2", (8,)),
        ]
    ],
    ("final_norm.gain", (8,)),
    ("final_norm.bias", (8,)),
    ("head.weight", (8, 4)),
    ("head.bias", (4,)),
]

# each weights object's fields and the tensor names they hold, block i
ATTN_NAMES = {"ln_gain": "block{i}.ln1.gain", "ln_bias": "block{i}.ln1.bias",
              "wq": "block{i}.attn.wq", "bq": "block{i}.attn.bq",
              "wk": "block{i}.attn.wk", "bk": "block{i}.attn.bk",
              "wv": "block{i}.attn.wv", "bv": "block{i}.attn.bv",
              "wo": "block{i}.attn.wo", "bo": "block{i}.attn.bo"}
FFN_NAMES = {"ln_gain": "block{i}.ln2.gain", "ln_bias": "block{i}.ln2.bias",
             "w1": "block{i}.ffn.w1", "b1": "block{i}.ffn.b1",
             "w2": "block{i}.ffn.w2", "b2": "block{i}.ffn.b2"}
EMBED_NAMES = {"weight": "patch_embed.weight", "bias": "patch_embed.bias",
               "class_token": "class_token", "pos_embed": "pos_embed"}
HEAD_NAMES = {"ln_gain": "final_norm.gain", "ln_bias": "final_norm.bias",
              "weight": "head.weight", "bias": "head.bias"}


def resolved_pairs(model):
    """(array held by a weights object, the tensor name it must be) for every field."""
    views = [(embed_view(model), EMBED_NAMES, None), (head_view(model), HEAD_NAMES, None)]
    for i in range(model.config.depth):
        views += [(attn_view(model, i), ATTN_NAMES, i), (ffn_view(model, i), FFN_NAMES, i)]
    return [
        (getattr(view, field), name.format(i=i))
        for view, names, i in views
        for field, name in names.items()
    ]


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

    @pytest.mark.parametrize("seed", [0, 1, 5, 2**63 + 7])
    @pytest.mark.parametrize("n", [1, 2, 7, 768, 224 * 224 * 3])
    def test_permutation_prefix_is_the_permutations_head(self, seed, n):
        for k in sorted({0, 1, n // 2, n}):
            gen = SplitMix64(seed)
            got = gen.permutation_prefix(n, k)
            assert got.tolist() == SplitMix64(seed).permutation(n)[:k].tolist()
            # the same n keys drawn, so the stream continues where permutation's does
            assert gen.next_uint64(1).tolist() == SplitMix64(seed).next_uint64(n + 1)[-1:].tolist()

    def test_permutation_prefix_rejects_a_length_outside_the_range(self):
        with pytest.raises(ValueError, match="outside 0..3"):
            SplitMix64(0).permutation_prefix(3, 4)


class TestLayout:
    def test_schema_is_the_written_layout(self):
        assert tensor_schema(CFG) == CFG_SCHEMA

    def test_random_init_draws_schema_order_from_one_stream(self):
        model = random_init(CFG, 9)
        gen = SplitMix64(9)
        for name, shape in CFG_SCHEMA:
            if name.endswith((".ln1.gain", ".ln2.gain", "final_norm.gain")):
                want = np.ones(shape)
            elif name.endswith((".ln1.bias", ".ln2.bias", "final_norm.bias")):
                want = np.zeros(shape)
            else:
                want = (gen.normal(int(np.prod(shape))) * (1.0 / np.sqrt(8.0))).reshape(shape)
            got = model.params[name]
            assert got.shape == shape and got.tobytes() == want.tobytes(), name

    def test_blob_is_tensors_in_schema_order(self, tmp_path):
        model = random_init(CFG, 9)
        save_model(model, tmp_path / "m")
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        want = b"".join(model.params[name].astype("<f8").tobytes() for name, _ in CFG_SCHEMA)
        assert (tmp_path / "m.weights.bin").read_bytes() == want
        assert [(e["name"], tuple(e["shape"])) for e in manifest["tensors"]] == CFG_SCHEMA


class TestResolvedWeights:
    def test_views_hold_the_params_arrays(self):
        model = random_init(CFG, 3)
        pairs = resolved_pairs(model)
        assert len(pairs) == len(CFG_SCHEMA)
        for arr, name in pairs:
            assert arr is model.params[name], name

    def test_views_return_the_same_object_every_call(self):
        model = random_init(CFG, 3)
        assert embed_view(model) is embed_view(model)
        assert head_view(model) is head_view(model)
        for i in range(CFG.depth):
            assert attn_view(model, i) is attn_view(model, i)
            assert ffn_view(model, i) is ffn_view(model, i)

    def test_loaded_views_are_read_only(self, tmp_path):
        save_model(random_init(CFG, 3), tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        for arr, name in resolved_pairs(loaded):
            assert arr is loaded.params[name] and not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            ffn_view(loaded, 1).w1[0, 0] = 1.0
        with pytest.raises(AttributeError):
            attn_view(loaded, 0).wq = np.zeros((8, 8))

    def test_missing_tensor_fails_at_construction(self):
        params = dict(random_init(CFG, 3).params)
        del params["block1.ffn.b2"]
        with pytest.raises(SchemaError, match="block1.ffn.b2"):
            Model(config=CFG, params=params)

    def test_misshapen_tensor_fails_at_construction(self):
        params = dict(random_init(CFG, 3).params)
        params["block0.attn.wk"] = np.zeros((8, 4))
        with pytest.raises(SchemaError, match="block0.attn.wk"):
            Model(config=CFG, params=params)


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
        manifest["checksum"] = hashlib.sha256(blob).hexdigest()
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

    @pytest.mark.parametrize("fmt", [
        ["satavit-weights-v2"], {"satavit-weights-v2": 1}, None, 2, "satavit-weights-v3", "",
    ], ids=["list", "object", "null", "int", "unknown", "empty"])
    def test_unsupported_format_is_schema_error(self, tmp_path, fmt):
        save_model(random_init(CFG, 11), tmp_path / "m")
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        manifest["format"] = fmt
        (tmp_path / "m.manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match="unsupported manifest format"):
            load_model(tmp_path / "m")

    def test_manifest_not_an_object_is_schema_error(self, tmp_path):
        save_model(random_init(CFG, 11), tmp_path / "m")
        (tmp_path / "m.manifest.json").write_text("[]")
        with pytest.raises(SchemaError, match="JSON object"):
            load_model(tmp_path / "m")

    def test_missing_files_surface_path(self, tmp_path):
        with pytest.raises(OSError, match="nowhere"):
            load_model(tmp_path / "nowhere")


def blake2b_64(blob: bytes) -> str:
    return hashlib.blake2b(blob, digest_size=8).hexdigest()


class TestFormats:
    """``satavit-weights-v2`` stores a SHA-256 digest; ``-v1`` manifests, with a
    64-bit BLAKE2b digest, still load.  Digests are computed here with hashlib."""

    def saved(self, tmp_path):
        model = random_init(CFG, 11)
        save_model(model, tmp_path / "m")
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        return model, manifest, (tmp_path / "m.weights.bin").read_bytes()

    def rewrite(self, tmp_path, manifest, blob=None):
        (tmp_path / "m.manifest.json").write_text(json.dumps(manifest))
        if blob is not None:
            (tmp_path / "m.weights.bin").write_bytes(blob)

    def test_save_writes_v2_with_sha256(self, tmp_path):
        model, manifest, blob = self.saved(tmp_path)
        assert manifest["format"] == "satavit-weights-v2"
        assert manifest["checksum"] == hashlib.sha256(blob).hexdigest()
        assert model_checksum(model) == manifest["checksum"]
        assert model_checksum(load_model(tmp_path / "m")) == manifest["checksum"]

    def test_v1_manifest_loads(self, tmp_path):
        model, manifest, blob = self.saved(tmp_path)
        self.rewrite(tmp_path, {**manifest, "format": "satavit-weights-v1",
                                "checksum": blake2b_64(blob)})
        loaded = load_model(tmp_path / "m")
        assert loaded.config == model.config
        for name, arr in model.params.items():
            assert loaded.params[name].tobytes() == arr.tobytes(), name
        # the checksum a save would write now is the v2 one
        assert model_checksum(loaded) == hashlib.sha256(blob).hexdigest()

    def test_v1_flipped_byte_is_checksum_error(self, tmp_path):
        _, manifest, blob = self.saved(tmp_path)
        flipped = bytearray(blob)
        flipped[100] ^= 0xFF
        self.rewrite(tmp_path, {**manifest, "format": "satavit-weights-v1",
                                "checksum": blake2b_64(blob)}, bytes(flipped))
        with pytest.raises(ChecksumError, match="checksum mismatch"):
            load_model(tmp_path / "m")

    def test_v2_with_a_blake2b_digest_is_checksum_error(self, tmp_path):
        _, manifest, blob = self.saved(tmp_path)
        self.rewrite(tmp_path, {**manifest, "checksum": blake2b_64(blob)})
        with pytest.raises(ChecksumError, match="checksum mismatch"):
            load_model(tmp_path / "m")

    def test_v1_with_a_sha256_digest_is_checksum_error(self, tmp_path):
        _, manifest, _ = self.saved(tmp_path)
        self.rewrite(tmp_path, {**manifest, "format": "satavit-weights-v1"})
        with pytest.raises(ChecksumError, match="checksum mismatch"):
            load_model(tmp_path / "m")
