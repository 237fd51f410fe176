"""CLI contract: subcommands, exit codes, byte-stable CSV output."""

import json

import numpy as np
import pytest

from satavit import (
    ModelConfig,
    cli,
    forward,
    harness,
    load_model,
    modelio,
    parallel,
    random_image,
    random_init,
    save_model,
    vit,
    write_raw_image,
)
from satavit.sata import ffn_flops

from conftest import run_cli

CONFIG = {
    "depth": 4,
    "dim": 16,
    "heads": 2,
    "patch": 2,
    "image": 8,
    "num_classes": 4,
    "gamma": 0.5,
    "alpha": 1.0,
}


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(CONFIG))
    stem = root / "model"
    res = run_cli("init", "--model", stem, "--config", cfg_path, "--seed", 17)
    assert res.returncode == 0, res.stderr
    return stem


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert run_cli("bogus-command").returncode == 1
        assert run_cli("forward").returncode == 1  # missing --model
        assert run_cli("stability", "--model", "x", "--severity", "9").returncode == 1

    def test_data_error_is_two(self, tmp_path):
        res = run_cli("forward", "--model", tmp_path / "missing")
        assert res.returncode == 2
        assert "error" in res.stderr

    def test_corrupt_model_is_two(self, model_path, tmp_path):
        import shutil

        stem = tmp_path / "broken"
        for suffix in (".manifest.json", ".weights.bin"):
            shutil.copy(str(model_path) + suffix, str(stem) + suffix)
        blob_path = tmp_path / "broken.weights.bin"
        blob_path.write_bytes(blob_path.read_bytes()[:-8])
        res = run_cli("forward", "--model", stem)
        assert res.returncode == 2
        assert "checksum" in res.stderr

    def test_sweep_bad_values_is_one(self, model_path):
        res = run_cli("sweep", "--model", model_path, "--param", "alpha",
                      "--values", "1.0,zap")
        assert res.returncode == 1

    @pytest.mark.parametrize("values,message", [
        ("abc", "--values must be comma-separated numbers"),
        (",", "--values is empty"),
    ])
    def test_sweep_values_usage_message(self, model_path, values, message):
        res = run_cli("sweep", "--model", model_path, "--param", "alpha", "--values", values)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == f"satavit sweep: error: {message}\n"

    def test_multiple_images_on_forward_is_one(self, model_path):
        res = run_cli("forward", "--model", model_path,
                      "--image", "a.f64", "--image", "b.f64")
        assert res.returncode == 1
        assert "single --image" in res.stderr

    def test_unwritable_out_is_two(self, model_path):
        res = run_cli("stats", "--model", model_path, "--seed", 1,
                      "--out", "/nonexistent-dir/x.csv")
        assert res.returncode == 2


class TestForward:
    def test_prints_logits_and_argmax(self, model_path):
        res = run_cli("forward", "--model", model_path, "--seed", 3)
        assert res.returncode == 0
        assert res.stdout.startswith("logits: ")
        assert "argmax:" in res.stdout
        assert "ffn_flops_total:" in res.stdout

    def test_no_sata_equals_band_cover(self, model_path):
        off = run_cli("forward", "--model", model_path, "--seed", 3, "--no-sata")
        cover = run_cli("forward", "--model", model_path, "--seed", 3,
                        "--alpha", "1e9")
        assert off.stdout.splitlines()[0] == cover.stdout.splitlines()[0]

    def test_reads_raw_image(self, model_path, tmp_path):
        cfg = ModelConfig(**CONFIG)
        img = random_image(cfg, 99)
        path = tmp_path / "img.f64"
        write_raw_image(img, path)
        res = run_cli("forward", "--model", model_path, "--image", path)
        assert res.returncode == 0


class TestCsvDeterminism:
    def test_stats_byte_identical(self, model_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            res = run_cli("stats", "--model", model_path, "--seed", 5, "--out", out)
            assert res.returncode == 0, res.stderr
        assert a.read_bytes() == b.read_bytes()

    def test_stability_byte_identical(self, model_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            res = run_cli("stability", "--model", model_path, "--seed", 5,
                          "--corruption", "impulse_noise", "--severity", 2,
                          "--out", out)
            assert res.returncode == 0, res.stderr
        assert a.read_bytes() == b.read_bytes()

    def test_selftest_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            res = run_cli("selftest", "--seed", 1, "--out", out)
            assert res.returncode == 0, res.stderr
        assert a.read_bytes() == b.read_bytes()

    def test_lf_line_endings(self, model_path, tmp_path):
        out = tmp_path / "stats.csv"
        run_cli("stats", "--model", model_path, "--seed", 5, "--out", out)
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestSubcommands:
    def test_stats_stdout(self, model_path):
        res = run_cli("stats", "--model", model_path, "--seed", 5)
        assert res.returncode == 0
        assert res.stdout.startswith("block,mean_s,abs_median_s,lower,upper,")

    def test_stability_none_is_all_ones(self, model_path):
        res = run_cli("stability", "--model", model_path, "--corruption", "none")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "block,delta_attention,delta_sata"
        assert len(lines) == 1 + CONFIG["depth"]
        for line in lines[1:]:
            _, da, ds = line.split(",")
            assert da == "1" and ds == "1"

    def test_stability_average(self, model_path, tmp_path):
        out = tmp_path / "avg.csv"
        res = run_cli("stability", "--model", model_path, "--average",
                      "--seed", 4, "--out", out)
        assert res.returncode == 0
        assert len(out.read_text().splitlines()) == 1 + CONFIG["depth"]

    @pytest.mark.parametrize("flags,named", [
        (["--average", "--corruption", "contrast"], ["--corruption"]),
        (["--average", "--severity", "5"], ["--severity"]),
        (["--average", "--corruption", "contrast", "--severity", "5"],
         ["--corruption", "--severity"]),
        (["--average", "--corruption", "none"], ["--corruption"]),
        (["--corruption", "none", "--severity", "2"], ["--severity"]),
    ])
    def test_stability_ignored_flag_is_usage_error(self, capsys, model_path, tmp_path,
                                                   flags, named):
        out = tmp_path / "never.csv"
        code, stdout, err = main_in_process(capsys, "stability", "--model", model_path,
                                            *flags, "--out", out)
        assert code == 1 and stdout == "" and not out.exists()
        assert all(flag in err for flag in named), err

    def test_stability_defaults_are_gaussian_noise_at_3(self, capsys, model_path):
        code, implicit, _ = main_in_process(capsys, "stability", "--model", model_path,
                                            "--seed", 2)
        assert code == 0
        code, explicit, _ = main_in_process(capsys, "stability", "--model", model_path,
                                            "--seed", 2, "--corruption", "gaussian_noise",
                                            "--severity", 3)
        assert code == 0 and explicit == implicit
        code, other, _ = main_in_process(capsys, "stability", "--model", model_path,
                                         "--seed", 2, "--severity", 4)
        assert code == 0 and other != implicit

    def test_sweep_schema_and_band_cover(self, model_path):
        res = run_cli("sweep", "--model", model_path, "--param", "alpha",
                      "--values", "0.5,1.0,1e9", "--seed", 5)
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "param_value,total_flops,logit_drift"
        assert len(lines) == 4
        assert float(lines[-1].split(",")[2]) <= 1e-9

    def test_flops_report(self, model_path):
        res = run_cli("flops", "--model", model_path, "--seed", 5)
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "block,ffn_tokens,ffn_flops"
        assert len(lines) == 1 + CONFIG["depth"]
        assert "ffn_flops_total:" in res.stderr
        assert "ratio:" in res.stderr

    def test_selftest_stdout(self):
        res = run_cli("selftest", "--seed", 0)
        assert res.returncode == 0
        assert res.stdout.startswith("check,cases,max_abs_error,status")
        assert "fail" not in res.stdout

    def test_init_builds_and_hashes_the_blob_once(self, capsys, monkeypatch, tmp_path):
        calls = []
        blob_bytes = modelio._blob_bytes
        monkeypatch.setattr(modelio, "_blob_bytes", lambda m: calls.append(1) or blob_bytes(m))
        stem = tmp_path / "m"
        code, out, _ = main_in_process(capsys, "init", "--model", stem, "--seed", 3)
        assert code == 0 and len(calls) == 1
        checksum = json.loads((tmp_path / "m.manifest.json").read_text())["checksum"]
        assert out == (f"wrote {stem}.manifest.json / {stem}.weights.bin "
                       f"(checksum {checksum})\n")

    def test_init_help_names_the_stage_flags(self, capsys):
        code, out, _ = main_in_process(capsys, "init", "--help")
        assert code == 0
        for text in ("override band scale", "override stage start fraction",
                     "disable the token stage entirely"):
            assert text in out

    def test_init_gamma_alpha_overrides(self, tmp_path):
        stem = tmp_path / "m2"
        res = run_cli("init", "--model", stem, "--seed", 1, "--alpha", 2.5,
                      "--gamma", 0.25)
        assert res.returncode == 0
        manifest = json.loads((tmp_path / "m2.manifest.json").read_text())
        assert manifest["config"]["alpha"] == 2.5
        assert manifest["config"]["gamma"] == 0.25


def main_in_process(capsys, *args):
    """Run ``cli.main`` in this process; returns (exit code, stdout, stderr)."""
    code = cli.main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("depth", "8"),
        ("depth", True),
        ("dim", 16.0),
        ("heads", None),
        ("num_classes", [4]),
        ("alpha", "1.0"),
        ("alpha", False),
        ("gamma", "0.5"),
        ("ffn_ratio", True),
        ("alpha", float("inf")),
        ("gamma", float("nan")),
        ("ffn_ratio", float("inf")),
        ("ffn_ratio", 1e308),
        ("ffn_ratio", -1e308),
        ("sata_enabled", "false"),
    ])
    def test_bad_field_exits_two_naming_it(self, capsys, tmp_path, field, value):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**CONFIG, field: value}))
        code, _, err = main_in_process(capsys, "init", "--model", tmp_path / "m",
                                       "--config", cfg_path)
        assert code == 2
        assert repr(field) in err
        assert "Traceback" not in err
        assert not (tmp_path / "m.manifest.json").exists()

    @pytest.mark.parametrize("flag,value", [("--alpha", "inf"), ("--alpha", "nan"),
                                            ("--gamma", "inf")])
    def test_non_finite_override_exits_two(self, capsys, tmp_path, flag, value):
        code, _, err = main_in_process(capsys, "init", "--model", tmp_path / "m", flag, value)
        assert code == 2
        assert flag.lstrip("-") in err
        assert "Traceback" not in err

    def test_config_not_an_object_exits_two(self, capsys, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text("[8, 32]")
        code, _, err = main_in_process(capsys, "init", "--model", tmp_path / "m",
                                       "--config", cfg_path)
        assert code == 2
        assert "JSON object" in err


def _broken_manifest_model(model_path, tmp_path, edit):
    import shutil

    stem = tmp_path / "broken"
    for suffix in (".manifest.json", ".weights.bin"):
        shutil.copy(str(model_path) + suffix, str(stem) + suffix)
    manifest_path = tmp_path / "broken.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))
    return stem


class TestMalformedManifest:
    @pytest.mark.parametrize("edit,message", [
        (lambda m: m["tensors"].__setitem__(0, 7), "tensors[0] must be an object"),
        (lambda m: m["tensors"].__setitem__(0, "pos_embed"), "tensors[0] must be an object"),
        (lambda m: m["tensors"][0].pop("name"), "lacks 'name'"),
        (lambda m: m["tensors"][0].pop("shape"), "lacks 'shape'"),
        (lambda m: m["tensors"][0].pop("offset"), "lacks 'offset'"),
        (lambda m: m["tensors"][0].__setitem__("offset", "0"), "offset '0', not an integer"),
        (lambda m: m["tensors"][0].__setitem__("offset", 0.0), "offset 0.0, not an integer"),
        (lambda m: m["tensors"][0].__setitem__("offset", None), "offset None, not an integer"),
        (lambda m: m["tensors"][0].__setitem__("shape", 64), "not a list of integers"),
        (lambda m: m["tensors"][0].__setitem__("name", ["x"]), "non-string name"),
        (lambda m: m.__setitem__("tensors", {"pos_embed": 0}), "'tensors' must be a list"),
        (lambda m: m["config"].__setitem__("ffn_ratio", 1e308), "'ffn_ratio'"),
        (lambda m: m["config"].__setitem__("ffn_ratio", -1e308), "'ffn_ratio'"),
    ], ids=["int-entry", "str-entry", "no-name", "no-shape", "no-offset", "str-offset",
            "float-offset", "null-offset", "int-shape", "list-name", "dict-tensors",
            "huge-ffn-ratio", "huge-negative-ffn-ratio"])
    def test_exits_two_with_message(self, capsys, model_path, tmp_path, edit, message):
        stem = _broken_manifest_model(model_path, tmp_path, edit)
        code, _, err = main_in_process(capsys, "forward", "--model", stem)
        assert code == 2
        assert message in err
        assert "Traceback" not in err


# config keys that earlier manifests carry, at the only value they may still hold
RETIRED = {"attention_reduce": "mean", "match_metric": "cosine", "moran_row_convention": False}


class TestRetiredConfigFields:
    def test_old_manifest_loads_with_the_same_logits(self, capsys, model_path, tmp_path):
        old = _broken_manifest_model(model_path, tmp_path, lambda m: m["config"].update(RETIRED))
        code, want, _ = main_in_process(capsys, "forward", "--model", model_path)
        assert code == 0
        code, got, err = main_in_process(capsys, "forward", "--model", old)
        assert code == 0, err
        assert got == want

    @pytest.mark.parametrize("field,value", [
        ("match_metric", "dot"),
        ("attention_reduce", "max"),
        ("moran_row_convention", True),
        ("moran_row_convention", 0),
    ])
    def test_non_default_value_exits_two_naming_it(self, capsys, model_path, tmp_path,
                                                   field, value):
        stem = _broken_manifest_model(model_path, tmp_path,
                                      lambda m: m["config"].__setitem__(field, value))
        code, out, err = main_in_process(capsys, "forward", "--model", stem)
        assert code == 2
        assert out == ""
        assert repr(field) in err
        assert "Traceback" not in err

    def test_init_drops_the_retired_keys(self, capsys, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**CONFIG, **RETIRED}))
        code, _, err = main_in_process(capsys, "init", "--model", tmp_path / "m",
                                       "--config", cfg_path)
        assert code == 0, err
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        assert not set(RETIRED) & set(manifest["config"])


class TestFlopsReport:
    def test_vanilla_total_matches_a_stage_off_forward(self, capsys, model_path):
        code, _, err = main_in_process(capsys, "flops", "--model", model_path, "--seed", 5)
        assert code == 0
        model = load_model(model_path)
        image = random_image(model.config, 5)
        on = forward(image, model)[1]
        off = forward(image, model, cfg=model.config.with_overrides(sata_enabled=False))[1]
        total = sum(tr.ffn_flops for tr in on)
        vanilla = sum(tr.ffn_flops for tr in off)
        assert err == (f"ffn_flops_total: {total}\n"
                       f"ffn_flops_vanilla: {vanilla}\n"
                       f"ratio: {format(total / vanilla, '.9g')}\n")


class TestImageInput:
    @pytest.mark.parametrize("body,field", [
        (b"P2 8 8 3\n" + b"9 " * 64, "exceeds maxval"),
        (b"P2 -4 8 3\n" + b"1 " * 64, "width"),
        (b"P2 abc 8 3\n" + b"1 " * 64, "width"),
        (b"P2 8 8 3\n" + b"1 2.5 " * 32, "sample '2.5'"),
        (b"P5\n8 8\n255\n" + bytes(10), "body"),
        (b"P5\n8 8\n70000\n" + bytes(128), "maxval must be at most 65535"),
        (b"P2 8 8 99999999999999999999\n" + b"1 " * 64, "maxval must be at most 65535"),
    ], ids=["sample-above-maxval", "negative-width", "non-integer-width",
            "non-integer-sample", "truncated-p5-body", "p5-maxval-above-65535",
            "p2-huge-maxval"])
    def test_bad_netpbm_exits_two_naming_file_and_field(self, capsys, model_path, tmp_path,
                                                        body, field):
        path = tmp_path / "img.pgm"
        path.write_bytes(body)
        code, _, err = main_in_process(capsys, "forward", "--model", model_path,
                                       "--image", path)
        assert code == 2
        assert str(path) in err
        assert field in err
        assert "Traceback" not in err

    def test_overflowing_raw_image_exits_two(self, capsys, tmp_path):
        cfg = ModelConfig()  # 16 values per patch: the first LayerNorm overflows
        save_model(random_init(cfg, seed=0), tmp_path / "m")
        path = tmp_path / "huge.f64"
        write_raw_image(np.full((cfg.image, cfg.image, cfg.channels), 1e308), path)
        code, _, err = main_in_process(capsys, "forward", "--model", tmp_path / "m",
                                       "--image", path)
        assert code == 2
        assert "non-finite" in err
        assert "Traceback" not in err

    def test_layer_norm_overflow_exits_two_without_a_warning(self, model_path, tmp_path):
        # 4 values per patch: the embedding stays finite, its variance does not
        path = tmp_path / "huge.f64"
        write_raw_image(np.full((CONFIG["image"], CONFIG["image"]), 1e308), path)
        res = run_cli("forward", "--model", model_path, "--image", path)
        assert res.returncode == 2
        assert "layer_norm produced non-finite" in res.stderr
        assert "RuntimeWarning" not in res.stderr
        assert "Traceback" not in res.stderr

    def test_infinite_weight_exits_two_with_one_error_line(self, tmp_path):
        model = random_init(ModelConfig(), seed=0)
        model.params["block0.attn.wq"][0] = np.inf  # numpy warns on the way to the check
        save_model(model, tmp_path / "m")
        res = run_cli("forward", "--model", tmp_path / "m")
        assert res.returncode == 2
        assert res.stderr == ("satavit forward: error: block 0: attention produced "
                              "non-finite entries\n")


# one block's full FFN is 17M FLOPs: reports go on the thread pool at 1 BLAS thread
POOL_CONFIG = {"depth": 2, "dim": 128, "heads": 4, "patch": 4, "image": 32,
               "num_classes": 4, "gamma": 0.5, "alpha": 1.0}


@pytest.fixture(scope="module")
def pool_model_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("pool")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(POOL_CONFIG))
    stem = root / "model"
    res = run_cli("init", "--model", stem, "--config", cfg_path, "--seed", 3)
    assert res.returncode == 0, res.stderr
    return stem


class TestParallelReports:
    def test_stdout_identical_with_blas_pinned_and_not(self, pool_model_path, tmp_path,
                                                       monkeypatch):
        cfg = ModelConfig(**POOL_CONFIG)
        assert ffn_flops(cfg.num_tokens, cfg.dim, cfg.hidden) >= parallel._POOL_MIN_FFN_FLOPS
        image_flags = []
        for seed in (1, 2, 3):
            write_raw_image(random_image(cfg, seed), tmp_path / f"img{seed}.raw")
            image_flags += ["--image", tmp_path / f"img{seed}.raw"]
        outputs = {}
        for threads in ("1", "2"):  # the pool runs at 1 BLAS thread only
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            runs = [
                run_cli("stability", "--model", pool_model_path, "--average", "--seed", 4),
                run_cli("stats", "--model", pool_model_path, *image_flags),
            ]
            for res in runs:
                assert res.returncode == 0, res.stderr
            outputs[threads] = [res.stdout for res in runs]
        assert outputs["1"] == outputs["2"]
        assert outputs["1"][0].startswith("block,delta_attention,delta_sata\n")

    def test_task_error_exits_two(self, pool_model_path, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise FloatingPointError("block 0 gelu produced non-finite entries")

        monkeypatch.setattr(harness, "forward_batch", failing)
        monkeypatch.setattr(parallel, "workers", lambda *args: 2)
        code, _, err = main_in_process(capsys, "stability", "--model", pool_model_path,
                                       "--average")
        assert code == 2
        assert "gelu produced non-finite entries" in err
        assert "Traceback" not in err

    def test_lane_error_exits_two(self, pool_model_path, monkeypatch, capsys):
        gelu = vit.gelu

        def infinite_in_the_second_lane(x):  # rows 32-64 of a full block's FFN
            if x.shape[-2] == 33:
                x = x.copy()
                x[..., 0, 0] = np.inf
            return gelu(x)

        cfg = ModelConfig(**POOL_CONFIG)
        assert parallel.Lanes(2).rows(cfg.num_tokens, cfg.dim, cfg.hidden)[1] == slice(32, 65)
        monkeypatch.setattr(vit, "gelu", infinite_in_the_second_lane)
        monkeypatch.setattr(parallel, "workers", lambda *args: 2)
        code, _, err = main_in_process(capsys, "forward", "--model", pool_model_path)
        assert code == 2
        assert "error: block 0: ffn produced non-finite entries" in err
        assert "Traceback" not in err
