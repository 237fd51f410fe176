"""Fuzz every input the CLI reads, through ``cli.main`` in this process.

Covered: the ``init --config`` JSON, the manifest (``format``,
``checksum``, ``config`` and the tensor entries, each case starting
from a v1 or a v2 manifest), weight values behind a valid checksum of
either format through ``forward``, ``stats``, ``stability`` and
``sweep``, and PGM/PPM and raw images through ``forward --image``.
Every case must end with exit code 0, 1 or 2, with no exception
escaping ``main`` and no traceback on stderr.

Sizes stay small: ``init`` geometry is capped (every field at most 64,
depth at most 4, channels at most 3, finite ``ffn_ratio`` at most 8),
so no weights exceed a few MB, and the image, manifest and weight cases
run on one 8x8 model.  Configs above ``ModelConfig``'s weight cap are
listed one by one: each must exit 2 naming a field, before anything is
allocated.  The cases are derandomized, so every run draws the same
ones.
"""

import contextlib
import copy
import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satavit import ModelConfig, cli, random_init, save_model
from satavit.vit import MAX_WEIGHTS

FUZZ = dict(derandomize=True, deadline=None)

# each manifest format and the blob digest it stores, computed here rather than by modelio
DIGESTS = {
    "satavit-weights-v1": lambda blob: hashlib.blake2b(blob, digest_size=8).hexdigest(),
    "satavit-weights-v2": lambda blob: hashlib.sha256(blob).hexdigest(),
}
FORMATS = st.sampled_from(sorted(DIGESTS))

MODEL_CONFIG = ModelConfig(depth=4, dim=16, heads=2, patch=2, image=8, num_classes=4,
                           gamma=0.5, alpha=1.0)


def run_main(*args) -> int:
    """``cli.main`` with stdout and stderr captured; checks the contract and returns the code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in args])
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308])
OTHER_JSON = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(-1, 8), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-1, 2), max_size=1),
)


def json_values(numbers):
    """``numbers``, the non-finite and extreme floats, or a value of another JSON type."""
    return st.one_of(numbers, SPECIAL, OTHER_JSON)


def sized(upper):
    return json_values(st.one_of(st.integers(-2, upper), st.floats(-2.0, upper)))


CONFIG_FIELDS = {
    "depth": sized(4),
    "dim": sized(64),
    "heads": sized(64),
    "patch": sized(64),
    "image": sized(64),
    "num_classes": sized(64),
    "channels": sized(3),
    "ffn_ratio": json_values(st.one_of(st.floats(-1.0, 8.0), st.integers(-1, 8))),
    "gamma": json_values(st.one_of(st.floats(), st.integers(-1, 2))),
    "alpha": json_values(st.one_of(st.floats(), st.integers(-1, 2))),
    "sata_enabled": json_values(st.integers(-1, 2)),
    # retired keys of earlier manifests, and one no version ever had
    "attention_reduce": json_values(st.sampled_from(["mean", "max"])),
    "match_metric": json_values(st.sampled_from(["cosine", "dot"])),
    "moran_row_convention": json_values(st.integers(0, 1)),
    "bogus": json_values(st.integers(0, 1)),
}
# small valid configs: a case edits one or two fields of one, or drops some keys
VALID = st.fixed_dictionaries({
    "depth": st.integers(1, 4), "dim": st.sampled_from([4, 8, 16]),
    "heads": st.sampled_from([1, 2, 4]), "patch": st.sampled_from([1, 2, 4]),
    "image": st.sampled_from([4, 8]), "num_classes": st.integers(1, 10),
    "channels": st.integers(1, 3), "ffn_ratio": st.floats(0.5, 4.0),
    "gamma": st.floats(0.0, 1.0), "alpha": st.floats(0.1, 4.0),
    "sata_enabled": st.booleans(),
})
FIELD_EDIT = st.sampled_from(sorted(CONFIG_FIELDS)).flatmap(
    lambda name: CONFIG_FIELDS[name].map(lambda value: {name: value}))


def edited(base, edits, dropped):
    merged = {**base, **{k: v for edit in edits for k, v in edit.items()}}
    return {k: v for k, v in merged.items() if k not in dropped}


CONFIGS = st.one_of(
    st.builds(edited, VALID, st.lists(FIELD_EDIT, min_size=1, max_size=2), st.just(())),
    st.builds(edited, VALID, st.just(()), st.sets(st.sampled_from(sorted(CONFIG_FIELDS)),
                                                   max_size=3)),
    st.fixed_dictionaries({}, optional=CONFIG_FIELDS),
    json_values(st.integers()),
)


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def model(root):
    """Path stem of a saved 8x8 model, and its manifest as saved."""
    stem = root / "model"
    save_model(random_init(MODEL_CONFIG, seed=3), stem)
    # the manifest cases rewrite a copy of the manifest next to these weights
    stem.with_name("broken.weights.bin").write_bytes(
        stem.with_name("model.weights.bin").read_bytes())
    return stem, json.loads((root / "model.manifest.json").read_text())


@settings(max_examples=200, **FUZZ)
@given(config=CONFIGS, raw=st.one_of(st.none(), st.binary(max_size=24)))
@example(config={**MODEL_CONFIG.to_dict(), "ffn_ratio": 1e308}, raw=None)
@example(config={**MODEL_CONFIG.to_dict(), "ffn_ratio": -1e308}, raw=None)
def test_init_config(root, config, raw):
    path = root / "config.json"
    path.write_bytes(json.dumps(config).encode() if raw is None else raw)
    run_main("init", "--model", root / "init", "--config", path)


@pytest.mark.parametrize("config,field", [
    ({"dim": 10**400, "heads": 1}, "'dim'"),
    ({"dim": 10**2000, "heads": 3}, "'dim'"),
    ({"dim": 10**6, "heads": 1}, "'dim'"),
    ({"depth": 10**400}, "'depth'"),
    ({"depth": 2**27}, "'depth'"),
    ({"ffn_ratio": 1e300}, "'ffn_ratio'"),
    ({"image": 10**6, "patch": 1}, "'image'"),
    ({"patch": 2**13, "image": 2**13, "channels": 3}, "'patch'"),
    ({"channels": 10**9}, "'channels'"),
    ({"num_classes": 10**9}, "'num_classes'"),
])
def test_init_config_above_the_weight_cap(root, capsys, config, field):
    path = root / "huge.json"
    path.write_text(json.dumps(config))
    code = cli.main(["init", "--model", str(root / "huge"), "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert field in err and str(MAX_WEIGHTS) in err
    assert not (root / "huge.weights.bin").exists()


TENSOR_VALUES = st.one_of(
    json_values(st.one_of(st.integers(-9, 10**30), st.text(max_size=12))),
    st.lists(st.integers(-1, 70), max_size=3),
)
# run-time settings the weights accept, so that some cases run the forward
RUN_TIME = st.fixed_dictionaries({}, optional={
    "gamma": st.floats(0.0, 1.0), "alpha": st.floats(1e-300, 1e300),
    "sata_enabled": st.booleans(),
})
MANIFEST_EDITS = st.one_of(
    st.tuples(st.just("fields"), RUN_TIME),
    st.tuples(st.just("fields"), FIELD_EDIT),
    st.tuples(st.sampled_from(["format", "checksum", "config", "tensors"]),
              json_values(st.text(max_size=16))),
    # one key of one tensor entry: a new value, or the key dropped (None)
    st.tuples(st.just("entry"), st.tuples(st.integers(0, 40),
                                          st.sampled_from(["name", "shape", "offset"]),
                                          TENSOR_VALUES)),
)


def edit_manifest(manifest, kind, edit):
    config, tensors = manifest["config"], manifest["tensors"]
    if kind == "fields":
        if isinstance(config, dict):
            config.update(edit)
    elif kind == "entry":
        index, key, value = edit
        entry = tensors[index % len(tensors)] if isinstance(tensors, list) and tensors else None
        if isinstance(entry, dict):
            if value is None:
                entry.pop(key, None)
            else:
                entry[key] = value
    else:
        manifest[kind] = edit


def with_checksum(manifest, blob, fmt):
    """``manifest`` in format ``fmt``, with the checksum of ``blob`` that ``fmt`` stores."""
    return {**manifest, "format": fmt, "checksum": DIGESTS[fmt](blob)}


@settings(max_examples=200, **FUZZ)
@given(fmt=FORMATS, edits=st.lists(MANIFEST_EDITS, max_size=2))
@example(fmt="satavit-weights-v2", edits=[("fields", {"ffn_ratio": 1e308})])
@example(fmt="satavit-weights-v2", edits=[("fields", {"ffn_ratio": -1e308})])
@example(fmt="satavit-weights-v2", edits=[("format", ["satavit-weights-v2"])])
@example(fmt="satavit-weights-v1", edits=[("format", {"satavit-weights-v1": 1})])
def test_manifest(root, model, fmt, edits):
    stem, saved = model
    blob = stem.with_name("broken.weights.bin").read_bytes()
    manifest = copy.deepcopy(with_checksum(saved, blob, fmt))
    for kind, edit in edits:
        edit_manifest(manifest, kind, edit)
    stem.with_name("broken.manifest.json").write_text(json.dumps(manifest))
    run_main("forward", "--model", stem.with_name("broken"))


def write_weights(stem, manifest, blob, fmt="satavit-weights-v2"):
    """Save ``blob`` as the weights of a model with ``manifest`` in format ``fmt``
    and a matching checksum."""
    stem.with_name(stem.name + ".weights.bin").write_bytes(blob)
    stem.with_name(stem.name + ".manifest.json").write_text(
        json.dumps(with_checksum(manifest, blob, fmt)))


# what a corrupt but checksummed blob may hold: non-finite, overflowing and subnormal values
WEIGHT_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 1e154,
                                 5e-324, -5e-324, 2e-310])
RUN_COMMANDS = (
    ("forward",),
    ("stats",),
    ("stability", "--average"),
    ("sweep", "--param", "alpha", "--values", "0.5,1.5"),
)


@settings(max_examples=100, **FUZZ)
@given(fmt=FORMATS,
       slots=st.lists(st.tuples(st.integers(0, MODEL_CONFIG.num_weights - 1), WEIGHT_VALUES),
                      min_size=1, max_size=3))
def test_weight_values_past_the_checksum(root, model, fmt, slots):
    stem, manifest = model
    weights = np.frombuffer(stem.with_name("model.weights.bin").read_bytes(), "<f8").copy()
    for index, value in slots:
        weights[index] = value
    corrupt = stem.with_name("corrupt")
    write_weights(corrupt, manifest, weights.tobytes(), fmt)
    for command in RUN_COMMANDS:
        assert run_main(*command, "--model", corrupt) in (0, 2), command


def part_of(tensor: str) -> str:
    """The message prefix of the model part whose output a bad ``tensor`` first reaches."""
    if tensor.startswith("block"):
        block, layer = tensor.split(".")[:2]
        return f"block {block[5:]}: " + ("attention" if layer in ("ln1", "attn") else "ffn")
    return "head: " if tensor.startswith(("final_norm.", "head.")) else "embed: "


@pytest.mark.parametrize("block", [*range(MODEL_CONFIG.depth), "embed", "head"])
def test_nan_weight_names_its_block(root, model, capsys, block):
    """A NaN in the first entry of each tensor of a block, of the embedding
    or of the head makes ``forward`` exit 2 naming that part."""
    stem, manifest = model
    clean = stem.with_name("model.weights.bin").read_bytes()
    prefix = f"block {block}: " if isinstance(block, int) else f"{block}: "
    entries = [e for e in manifest["tensors"] if part_of(e["name"]).startswith(prefix)]
    assert entries
    corrupt = stem.with_name("nan")
    misnamed = {}
    for entry in entries:
        blob = bytearray(clean)
        blob[entry["offset"]:entry["offset"] + 8] = np.array([math.nan], "<f8").tobytes()
        write_weights(corrupt, manifest, bytes(blob))
        code = cli.main(["forward", "--model", str(corrupt)])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err, (entry["name"], err)
        if f"error: {part_of(entry['name'])}" not in err or "non-finite" not in err:
            misnamed[entry["name"]] = err
    assert misnamed == {}


@pytest.mark.parametrize("name,index", [("head.weight", 0), ("head.bias", 3),
                                        ("final_norm.gain", 5)])
def test_non_finite_head_names_the_head(root, model, capsys, name, index):
    stem, manifest = model
    blob = bytearray(stem.with_name("model.weights.bin").read_bytes())
    at = next(e for e in manifest["tensors"] if e["name"] == name)["offset"] + 8 * index
    blob[at:at + 8] = np.array([math.nan], "<f8").tobytes()
    corrupt = stem.with_name("nan_head")
    write_weights(corrupt, manifest, bytes(blob))
    out = root / "sweep.csv"
    for command in (("forward",), ("sweep", "--param", "alpha", "--values", "0.5,1.5",
                                   "--out", out)):
        assert cli.main([*map(str, command), "--model", str(corrupt)]) == 2, command
        err = capsys.readouterr().err
        assert "error: head: " in err and "non-finite" in err and "Traceback" not in err
    # the sweep fails before it writes a logit drift
    assert not out.exists()


def netpbm(magic, width, height, maxval, comment, body):
    header = [magic, str(width), str(height), str(maxval)]
    if comment:
        header.insert(1, "# fuzz\n")
    return " ".join(header).encode() + b"\n" + body


def ascii_samples(values):
    return " ".join(map(str, values)).encode()


# the model reads 8x8 grey images: the first two branches draw valid ones, the last
# any header and body
NETPBM = st.one_of(
    st.builds(netpbm, st.sampled_from(["P2", "P5"]), st.just(8), st.just(8), st.just(255),
              st.booleans(), st.lists(st.integers(0, 255), min_size=64, max_size=64).map(
                  ascii_samples)),
    st.builds(netpbm, st.just("P5"), st.just(8), st.just(8), st.just(255), st.booleans(),
              st.binary(min_size=64, max_size=70)),
    st.builds(
        netpbm,
        magic=st.sampled_from(["P2", "P3", "P5", "P6", "P1", "P4", "", "P7"]),
        width=st.one_of(st.just(8), st.integers(-1, 64), st.just("x")),
        height=st.one_of(st.just(8), st.integers(-1, 64), st.just("1.5")),
        maxval=st.one_of(st.sampled_from([255, 65535]), st.integers(-1, 70000),
                         st.just(10**30)),
        comment=st.booleans(),
        body=st.one_of(st.binary(max_size=400),
                       st.lists(st.integers(-1, 70000), max_size=200).map(ascii_samples)),
    ),
)
# 8x8x1 float64 samples are 512 bytes; the values include NaN and 1e308
RAW = st.one_of(
    st.lists(st.floats(0.0, 1.0), min_size=64, max_size=64),
    st.lists(st.floats(), min_size=64, max_size=64),
).map(lambda v: np.array(v, dtype="<f8").tobytes()) | st.binary(max_size=600)


@settings(max_examples=200, **FUZZ)
@given(image=st.one_of(st.tuples(NETPBM, st.sampled_from([".pgm", ".ppm", ".PGM"])),
                       st.tuples(RAW, st.sampled_from([".f64", ""]))))
def test_forward_image(root, model, image):
    body, suffix = image
    path = root / f"image{suffix}"
    path.write_bytes(body)
    run_main("forward", "--model", model[0], "--image", path)
