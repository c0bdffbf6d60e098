import importlib.util
import json
import os
import sys
import types

import numpy as np
import pytest

from gemma_mini import cli, model
from gemma_mini import distill as distill_mod
from gemma_mini.kvcache import kv_bytes
from gemma_mini.memplan import MemoryReport
from gemma_mini.model import ModelConfig, init_params, layer_kinds, save_weights
from gemma_mini.presets import parse_config_text

from conftest import with_line


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPattern:
    def test_twelve_layer_five_to_one(self, capsys):
        code, out, _ = run_cli(capsys, "pattern", "--layers", "12", "--ratio", "5")
        assert code == 0
        assert out.strip() == "LLLLLGLLLLLG"

    def test_one_to_one(self, capsys):
        code, out, _ = run_cli(capsys, "pattern", "--layers", "8", "--ratio", "1")
        assert code == 0
        assert out.strip() == "LGLGLGLG"


class TestPlan:
    def test_27b_bf16_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "--preset", "gemma3-27b", "--scheme", "bf16"
        )
        assert code == 0
        assert "54.0" in out

    def test_json_output_parses(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--preset", "gemma3-1b", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["model"] == "gemma3-1b"
        assert data["weights_gb"]["bf16"] == pytest.approx(2.0)

    def test_scheme_narrows_the_json(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--preset", "gemma3-1b", "--json",
                               "--scheme", "int4")
        assert code == 0
        data = json.loads(out)
        assert list(data["weights_gb"]) == list(data["totals_gb"]) == ["int4"]
        assert MemoryReport.from_dict(data).to_dict() == data

    def test_negative_context_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "plan", "--preset", "gemma3-1b", "--context", "-5")
        assert code == 2
        assert out == "" and "--context" in err

    def test_zero_context_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "plan", "--preset", "gemma3-1b", "--context", "0")
        assert code == 2
        assert out == "" and "--context" in err

    def test_unknown_preset_is_runtime_error(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--preset", "nope")
        assert code == 1
        assert "nope" in err

    @pytest.mark.parametrize("preset, message", [
        ("toy", "preset 'toy' is missing required key 'embedding_params'\n"),
        ("nope", "unknown preset 'nope'; available: "),
    ], ids=["no-counts", "unknown"])
    def test_preset_key_error_is_one_unquoted_line(self, capsys, preset, message):
        """A preset error prints its message, not a repr in double quotes."""
        code, out, err = run_cli(capsys, "plan", "--preset", preset)
        assert code == 1 and out == ""
        assert err.startswith("error: " + message), err
        assert err.count("\n") == 1 and '"' not in err


class TestKvCurve:
    def test_rows_match_kv_bytes(self, capsys):
        code, out, _ = run_cli(
            capsys, "kv-curve", "--ratio", "5", "--window", "1024",
            "--layers", "6", "--kv-heads", "8", "--head-dim", "256",
            "--contexts", "1024,32768,131072",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "context,bytes"
        rows = {int(line.split(",")[0]): float(line.split(",")[1]) for line in lines[1:]}
        pattern = layer_kinds(6, 5)
        want = kv_bytes(pattern, 32768, 8, 256, 1.0, window=1024)["total"]
        assert rows[32768] == want


class TestDeterminism:
    def test_same_seed_same_output(self, capsys):
        args = ["pattern", "--layers", "24", "--ratio", "5"]
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_generate_seeded(self, capsys, tmp_path):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(
            "n_layers = 2\nd_model = 16\nhidden_dim = 32\nvocab_size = 260\n"
            "max_context = 64\nnum_query_heads = 2\nnum_kv_heads = 1\n"
            "head_dim = 8\nwindow = 8\n"
        )
        cfg = ModelConfig.from_dict(parse_config_text(cfg_path.read_text()))
        weights = tmp_path / "w.bin"
        save_weights(init_params(cfg, seed=1), cfg, str(weights))
        args = [
            "generate", "--weights", str(weights),
            "--prompt", "ab", "--max-new", "8", "--temperature", "1",
            "--seed", "5",
        ]
        code, first, _ = run_cli(capsys, *args)
        assert code == 0
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestGenerateCapacity:
    """The one capacity rule is model.generate's: a P-token prompt and N new
    tokens need P + N - 1 positions, since the last new token is never fed
    back. toy's max_context is 512; "hi" with BOS is 3 tokens."""

    def test_one_position_too_many_fails_before_decoding(self, capsys, monkeypatch):
        def no_pass(*args, **kwargs):
            raise AssertionError("a pass ran before the capacity was checked")

        monkeypatch.setattr(model, "make_cache", no_pass)
        monkeypatch.setattr(model, "_run", no_pass)
        code, out, err = run_cli(capsys, "generate", "--prompt", "hi", "--max-new", "511")
        assert code == 1 and out == ""
        assert err.endswith("error: a 3-token prompt and 511 new tokens need 513 positions, "
                            "past max_context 512\n")
        assert "Traceback" not in err

    def test_prompt_and_new_tokens_filling_max_context_run(self, capsys):
        assert run_cli(capsys, "generate", "--prompt", "hi", "--max-new", "510")[0] == 0


class TestGenerateTemperature:
    """--temperature is the one sampling knob: 0, the default, is greedy."""

    ARGS = ("generate", "--prompt", "the ", "--max-new", "16")

    def test_zero_is_the_default_greedy_run(self, capsys):
        code, greedy, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        assert run_cli(capsys, *self.ARGS, "--temperature", "0")[1] == greedy

    def test_positive_temperature_samples(self, capsys):
        greedy = run_cli(capsys, *self.ARGS)[1]
        code, sampled, _ = run_cli(capsys, *self.ARGS, "--temperature", "5")
        assert code == 0
        assert sampled != greedy


@pytest.fixture
def no_init(monkeypatch):
    monkeypatch.setattr(cli, "init_params", lambda *a, **k: pytest.fail("init_params ran"))


class TestGeneratePlanningPreset:
    """A preset with published parameter counts is sized for plan: random
    init of gemma3-1b would be 8 GB of float64. Its counts are no config
    field, so generate refuses it by name before init_params runs."""

    MESSAGE = ("error: preset '{}': config has unknown keys: 'embedding_params', "
               "'non_embedding_params'")

    @pytest.mark.parametrize("preset", ["gemma3-1b", "gemma3-27b"])
    def test_shipped_planning_preset_refused_before_init(self, capsys, no_init, preset):
        code, out, err = run_cli(capsys, "generate", "--preset", preset, "--prompt", "a")
        assert code == 1 and out == ""
        assert err == self.MESSAGE.format(preset) + ", 'vision_encoder_params'\n"

    def test_planning_preset_from_the_preset_directory_refused_before_init(
            self, capsys, tmp_path, monkeypatch, no_init):
        monkeypatch.setenv("GEMMA_MINI_PRESETS", str(tmp_path))
        (tmp_path / "mine.cfg").write_text(TestPlanPresetFile.PRESET)
        code, out, err = run_cli(capsys, "generate", "--preset", "mine", "--prompt", "a")
        assert code == 1 and out == ""
        assert err == self.MESSAGE.format("mine") + "\n"

    def test_unknown_preset_is_one_unprefixed_line(self, capsys, no_init):
        code, out, err = run_cli(capsys, "generate", "--preset", "nope", "--prompt", "a")
        assert code == 1 and out == ""
        assert err.startswith("error: unknown preset 'nope'; available: ")
        assert err.count("\n") == 1

    def test_toy_preset_still_runs(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--preset", "toy", "--prompt", "a",
                               "--max-new", "2")
        assert code == 0, err


class TestGenerateConfigFile:
    TINY = ("n_layers = 2\nd_model = 16\nhidden_dim = 32\nvocab_size = 260\n"
            "max_context = 64\nnum_query_heads = 2\nhead_dim = 8\nwindow = 8\n")

    def _generate(self, capsys, tmp_path, text):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(text)
        return run_cli(capsys, "generate", "--config", str(cfg_path), "--prompt", "a")

    def test_zero_kv_heads_is_one_line_error(self, capsys, tmp_path):
        code, out, err = self._generate(capsys, tmp_path, self.TINY + "num_kv_heads = 0\n")
        assert code == 1 and out == ""
        assert err == "error: num_kv_heads must be >= 1, got 0\n"

    def test_missing_required_key_is_one_line_error(self, capsys, tmp_path):
        code, out, err = self._generate(capsys, tmp_path, self.TINY)
        assert code == 1 and out == ""
        assert err == "error: config is missing required keys: num_kv_heads\n"

    def test_repeated_key_is_one_line_error(self, capsys, tmp_path):
        text = self.TINY + "num_kv_heads = 1\nwindow = 16\n"
        code, out, err = self._generate(capsys, tmp_path, text)
        assert code == 1 and out == ""
        assert err == "error: line 10: window is already set on line 8\n"

    @pytest.mark.parametrize("line, message", [
        ("window = abc", "window must be int, got 'abc'"),
        ("d_model = 64.5", "d_model must be int, got 64.5"),
        ("n_layers = true", "n_layers must be int, got True"),
        ("d_model = 0", "d_model must be >= 1, got 0"),
        ("tie_embeddings = false", "config has unknown keys: 'tie_embeddings'"),
        ("rope_scale_local = 1", "config has unknown keys: 'rope_scale_local'"),
        ("rms_eps = 1e-6", "config has unknown keys: 'rms_eps'"),
        # a typo is not dropped for the field's default: windw = 16 would leave window 1024
        ("windw = 16", "config has unknown keys: 'windw'"),
        ("local_per_globl = 1", "config has unknown keys: 'local_per_globl'"),
        ("rope_scale_globl = 8", "config has unknown keys: 'rope_scale_globl'"),
        ("windw = 16\nlocal_per_globl = 1\nrope_scale_globl = 8",
         "config has unknown keys: 'local_per_globl', 'rope_scale_globl', 'windw'"),
        ("= 16", "config has unknown keys: ''"),
        ("window 8 = 3", "config has unknown keys: 'window 8'"),
    ], ids=["string-window", "float-width", "bool-layers", "zero-width", "tie_embeddings",
            "rope_scale_local", "rms_eps", "windw", "local_per_globl", "rope_scale_globl",
            "all-three-typos", "no-key", "spaced-key"])
    def test_bad_field_is_one_line_error(self, capsys, tmp_path, no_init, line, message):
        text = with_line(self.TINY + "num_kv_heads = 1\n", line)
        code, out, err = self._generate(capsys, tmp_path, text)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


class TestPlanPresetFile:
    # a planning preset is a full model config plus the parameter counts
    PRESET = ("embedding_params = 1000\nnon_embedding_params = 2000\nn_layers = 6\n"
              "d_model = 64\nhidden_dim = 128\nvocab_size = 260\nmax_context = 64\n"
              "num_query_heads = 2\nnum_kv_heads = 1\nhead_dim = 16\nwindow = 16\n")

    @pytest.mark.parametrize("line, message", [
        ("window = 0", "window 0 must lie in [1, max_context=64]"),
        ("n_layers = six", "n_layers must be int, got 'six'"),
        ("tie_embeddings = true", "config has unknown keys: 'tie_embeddings'"),
        ("rope_scale_local = 1", "config has unknown keys: 'rope_scale_local'"),
        ("rms_eps = 1e-6", "config has unknown keys: 'rms_eps'"),
        ("windw = 16", "config has unknown keys: 'windw'"),
        ("name = mine", "config has unknown keys: 'name'"),
    ], ids=["zero-window", "string-layers", "tie_embeddings", "rope_scale_local", "rms_eps",
            "typo", "name"])
    def test_bad_preset_field_is_one_line_error(self, capsys, tmp_path, monkeypatch,
                                                line, message):
        monkeypatch.setenv("GEMMA_MINI_PRESETS", str(tmp_path))
        (tmp_path / "mine.cfg").write_text(self.PRESET)
        assert run_cli(capsys, "plan", "--preset", "mine")[0] == 0
        (tmp_path / "mine.cfg").write_text(with_line(self.PRESET, line))
        code, out, err = run_cli(capsys, "plan", "--preset", "mine")
        assert code == 1 and out == ""
        assert err == f"error: preset 'mine': {message}\n"


class TestChatGenerate:
    def test_chat_prompt_round_trips(self, capsys, tmp_path):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(
            "n_layers = 2\nd_model = 16\nhidden_dim = 32\nvocab_size = 260\n"
            "max_context = 128\nnum_query_heads = 2\nnum_kv_heads = 1\n"
            "head_dim = 8\nwindow = 8\n"
        )
        cfg = ModelConfig.from_dict(parse_config_text(cfg_path.read_text()))
        weights = tmp_path / "w.bin"
        save_weights(init_params(cfg, seed=3), cfg, str(weights))
        code, out, _ = run_cli(
            capsys, "generate", "--weights", str(weights),
            "--chat", "--prompt", "hi", "--max-new", "6",
        )
        assert code == 0
        assert out.endswith("\n")


class TestDistillCommand:
    def test_held_out_longer_than_max_context(self, capsys, tmp_path):
        # 5,456 tokens with BOS: the held-out fifth has 1,091 targets, more
        # than the toy student's max_context of 512
        corpus = tmp_path / "big.txt"
        rng = np.random.default_rng(0)
        corpus.write_bytes(bytes(rng.choice(list(b"abcdefgh \n"), size=5455).tolist()))
        code, out, err = run_cli(
            capsys, "distill", "--corpus", str(corpus), "--teacher-steps", "1", "--steps", "1",
        )
        assert code == 0, err
        assert out.splitlines()[0] == "step,loss"
        assert "held-out ce (distilled)" in err

    @pytest.mark.parametrize("text, head, tail", [(b"", 0, 1), (b"abc", 3, 1)],
                             ids=["empty", "three-bytes"])
    def test_corpus_too_small_fails_before_training(self, capsys, tmp_path, monkeypatch,
                                                    text, head, tail):
        monkeypatch.setattr(distill_mod, "train_byte_lm", _no_training)
        corpus = tmp_path / "small.txt"
        corpus.write_bytes(text)
        code, out, err = run_cli(capsys, "distill", "--corpus", str(corpus))
        assert code == 1 and out == ""
        assert f"{head}-token training head" in err and f"{tail}-token held-out tail" in err

    @pytest.mark.parametrize("flag", ["--out", "--save-student", "--save-teacher"])
    def test_missing_output_directory_fails_before_training(self, capsys, tmp_path,
                                                            monkeypatch, flag):
        monkeypatch.setattr(distill_mod, "train_byte_lm", _no_training)
        corpus = tmp_path / "docs.txt"
        corpus.write_text("abcdefgh " * 20)
        code, out, err = run_cli(
            capsys, "distill", "--corpus", str(corpus), flag, str(tmp_path / "nodir" / "x"),
        )
        assert code == 1 and out == ""
        assert err.startswith(f"error: {flag}: ") and "nodir" in err


def _no_training(*args, **kwargs):
    raise AssertionError("train_byte_lm ran before the inputs were checked")


class TestWeightFileFlow:
    def test_saved_student_runs_generate_and_audit(self, capsys, tmp_path):
        """The README flow: distill writes one self-describing file, and
        generate and audit read the config from it."""
        corpus = tmp_path / "corpus.txt"
        rng = np.random.default_rng(1)
        corpus.write_text("".join(rng.choice(list("abcdefgh "), size=300)))
        student = str(tmp_path / "s.bin")
        code, _, err = run_cli(
            capsys, "distill", "--corpus", str(corpus), "--teacher-steps", "1",
            "--steps", "1", "--save-student", student,
        )
        assert code == 0, err
        assert sorted(os.listdir(tmp_path)) == ["corpus.txt", "s.bin"]
        code, out, err = run_cli(
            capsys, "generate", "--weights", student, "--prompt", "the ", "--max-new", "4",
        )
        assert code == 0, err
        assert out.endswith("\n")
        report = str(tmp_path / "report.json")
        code, _, err = run_cli(
            capsys, "audit", "--corpus", str(corpus), "--weights", student,
            "--max-samples", "1", "--out", report,
        )
        assert code == 0, err
        assert json.loads(open(report).read())["n_samples"] == 1
        code, _, err = run_cli(
            capsys, "generate", "--preset", "toy", "--weights", student, "--prompt", "a",
        )
        assert code == 2 and "not allowed with argument" in err

    def test_old_format_file_is_one_line_error(self, capsys, tmp_path):
        old = tmp_path / "old.bin"
        np.ones(48, dtype="<f8").tofile(old)
        (tmp_path / "old.bin.manifest").write_text("final_norm 48 0\n")
        code, out, err = run_cli(capsys, "generate", "--weights", str(old), "--prompt", "a")
        assert code == 1 and out == ""
        assert err.startswith(f"error: {old}: not an np.savez archive")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestPanscanCommand:
    def test_plan_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "panscan", "--width", "4000", "--height", "1000", "--max-crops", "4"
        )
        assert code == 0
        plan = json.loads(out)
        assert plan["grid"] == [4, 1]
        assert plan["applied"] is True

    def test_image_crops_written(self, capsys, tmp_path):
        PIL = pytest.importorskip("PIL.Image")
        img = np.zeros((100, 1000, 3), dtype=np.uint8)
        img[:, :, 0] = np.linspace(0, 255, 1000, dtype=np.uint8)[None, :]
        src = tmp_path / "wide.png"
        PIL.fromarray(img).save(src)
        out_dir = tmp_path / "crops"
        code, out, err = run_cli(
            capsys, "panscan", "--width", "1000", "--height", "100",
            "--max-crops", "3", "--target", "64",
            "--image", str(src), "--out-dir", str(out_dir),
        )
        assert code == 0
        manifest = json.loads((out_dir / "crops.json").read_text())
        assert len(manifest["crops"]) == len(json.loads(out)["crops"])
        first = np.fromfile(out_dir / manifest["crops"][0]["file"], dtype=np.uint8)
        assert first.size == 64 * 64 * 3

    def test_image_without_pillow_is_one_line_error(self, capsys, tmp_path):
        if importlib.util.find_spec("PIL") is not None:
            pytest.skip("Pillow is installed")
        code, out, err = run_cli(capsys, "panscan", "--width", "100", "--height", "100",
                                 "--image", str(tmp_path / "any.png"))
        assert code == 1
        assert json.loads(out)["grid"]  # the plan prints before the image is read
        assert err == "error: --image needs Pillow (pip install gemma-mini[image])\n"

    def test_image_of_another_size_is_one_line_error(self, capsys, tmp_path, monkeypatch):
        image = types.ModuleType("PIL.Image")
        image.open = lambda path: types.SimpleNamespace(
            convert=lambda mode: np.zeros((20, 30, 3), dtype=np.uint8))
        monkeypatch.setitem(sys.modules, "PIL", types.SimpleNamespace(Image=image))
        monkeypatch.setitem(sys.modules, "PIL.Image", image)
        code, _, err = run_cli(capsys, "panscan", "--width", "100", "--height", "100",
                               "--image", str(tmp_path / "any.png"), "--out-dir", str(tmp_path))
        assert code == 1
        assert err == "error: image is 30x20, not 100x100\n"
        assert not (tmp_path / "crops.json").exists()


class TestAuditCommand:
    def test_end_to_end_with_tiny_model(self, capsys, tmp_path):
        corpus = tmp_path / "docs.txt"
        rng = np.random.default_rng(0)
        letters = "abcdefghijklmnopqrstuvwxyz "
        doc = "".join(rng.choice(list(letters), size=150))
        corpus.write_text(doc)
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(
            "n_layers = 2\nd_model = 16\nhidden_dim = 32\nvocab_size = 260\n"
            "max_context = 256\nnum_query_heads = 2\nnum_kv_heads = 1\n"
            "head_dim = 8\nwindow = 16\n"
        )
        cfg = ModelConfig.from_dict(parse_config_text(cfg_path.read_text()))
        weights = tmp_path / "w.bin"
        save_weights(init_params(cfg, seed=2), cfg, str(weights))
        out_path = tmp_path / "report.json"
        code, _, err = run_cli(
            capsys, "audit", "--corpus", str(corpus),
            "--weights", str(weights), "--out", str(out_path),
        )
        assert code == 0, err
        report = json.loads(out_path.read_text())
        assert report["n_samples"] == 1
        assert report["exact_rate"] == 0.0  # random weights recall nothing

    def test_missing_output_directory_fails_before_auditing(self, capsys, tmp_path,
                                                            monkeypatch):
        def no_audit(*args, **kwargs):
            raise AssertionError("run_audit ran before --out was checked")

        monkeypatch.setattr(cli.audit_mod, "run_audit", no_audit)
        corpus = tmp_path / "docs.txt"
        corpus.write_text("\n\n".join(["abcdefgh " * 20] * 4))
        cfg = ModelConfig(
            n_layers=1, d_model=8, hidden_dim=16, vocab_size=260, max_context=256,
            num_query_heads=2, num_kv_heads=1, head_dim=4, window=16,
        )
        weights = tmp_path / "w.bin"
        save_weights(init_params(cfg, seed=2), cfg, str(weights))
        code, out, err = run_cli(
            capsys, "audit", "--corpus", str(corpus), "--weights", str(weights),
            "--out", str(tmp_path / "nodir" / "r.json"),
        )
        assert code == 1 and out == ""
        assert err.startswith("error: --out: ") and "nodir" in err


# each option checked at parse time, with the start of its message
OUT_OF_RANGE = [
    (["plan", "--preset", "gemma3-1b", "--kv-bits", "0"], "--kv-bits", "must be >= 1"),
    (["plan", "--preset", "gemma3-1b", "--kv-bits", "-4"], "--kv-bits", "must be >= 1"),
    (["kv-curve", "--contexts", "100", "--kv-bits", "0"], "--kv-bits", "must be >= 1"),
    (["kv-curve", "--contexts", "100", "--window", "0"], "--window", "must be >= 1"),
    (["kv-curve", "--contexts", "100", "--layers", "0"], "--layers", "must be >= 1"),
    (["kv-curve", "--contexts", "100", "--kv-heads", "0"], "--kv-heads", "must be >= 1"),
    (["kv-curve", "--contexts", "100", "--head-dim", "0"], "--head-dim", "must be >= 1"),
    (["kv-curve", "--contexts", "100", "--ratio", "-1"], "--ratio", "must be >= 0"),
    (["kv-curve", "--contexts", "5,x"], "--contexts", "comma-separated integers >= 1"),
    (["kv-curve", "--contexts", "5,0"], "--contexts", "comma-separated integers >= 1"),
    (["kv-curve", "--contexts", "10,5"], "--contexts", "must be ascending"),
    (["pattern", "--layers", "0"], "--layers", "must be >= 1"),
    (["pattern", "--layers", "6", "--ratio", "-1"], "--ratio", "must be >= 0"),
    (["panscan", "--width", "0", "--height", "10"], "--width", "must be >= 1"),
    (["panscan", "--width", "10", "--height", "-5"], "--height", "must be >= 1"),
    (["panscan", "--width", "10", "--height", "10", "--max-crops", "0"], "--max-crops",
     "must be >= 1"),
    (["panscan", "--width", "10", "--height", "10", "--target", "0"], "--target", "must be >= 1"),
    (["generate", "--prompt", "hi", "--seed", "-1"], "--seed", "must be >= 0"),
    (["distill", "--corpus", "c.txt", "--seed", "-1"], "--seed", "must be >= 0"),
    (["audit", "--corpus", "c.txt", "--weights", "w.bin", "--out", "r.json", "--seed", "-1"],
     "--seed", "must be >= 0"),
]


class TestUsageErrors:
    def test_unknown_flag_is_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "pattern", "--bogus", "1")
        assert code == 2

    @pytest.mark.parametrize("argv, option", [
        (["generate", "--prompt", "a", "--max-new", "-3"], "--max-new"),
        (["generate", "--prompt", "a", "--temperature", "-1"], "--temperature"),
        (["generate", "--prompt", "a", "--temperature", "nan"], "--temperature"),
        (["generate", "--prompt", "a", "--temperature", "inf"], "--temperature"),
        (["generate", "--prompt", "a", "--sampler", "temperature"], "--sampler"),
        (["kv-curve", "--contexts", ","], "--contexts"),
        (["kv-curve", "--contexts", ""], "--contexts"),
        (["distill", "--corpus", "c.txt", "--k", "0"], "--k"),
        (["distill", "--corpus", "c.txt", "--steps", "0"], "--steps"),
        (["distill", "--corpus", "c.txt", "--teacher-steps", "-1"], "--teacher-steps"),
        (["audit", "--corpus", "c.txt", "--weights", "w.bin", "--out", "r.json",
          "--stride", "0"], "--stride"),
        (["audit", "--corpus", "c.txt", "--weights", "w.bin", "--out", "r.json",
          "--max-samples", "0"], "--max-samples"),
        (["audit", "--corpus", "c.txt", "--weights", "w.bin", "--out", "r.json",
          "--preset", "toy"], "--preset"),
    ])
    def test_bad_option_is_exit_2_before_work(self, capsys, argv, option):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert option in err

    @pytest.mark.parametrize("argv, option, message", OUT_OF_RANGE,
                             ids=[" ".join(argv) for argv, _, _ in OUT_OF_RANGE])
    def test_out_of_range_option_is_exit_2(self, capsys, argv, option, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"argument {option}: " in err and message in err

    def test_missing_subcommand_is_exit_2(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2
