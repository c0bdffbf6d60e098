import json

import numpy as np
import pytest

from gemma_mini.errors import ConfigError
from gemma_mini.memplan import GB, SCHEMES, MemoryReport, PrecisionScheme, report, weight_bytes
from gemma_mini.model import ModelConfig, make_cache
from gemma_mini.presets import PLANNING_KEYS, list_presets, load_preset, preset_values

from conftest import with_line

# Published reference points: (embedding, non-embedding) parameter counts
# and the bf16 footprint in decimal GB.
PUBLISHED = {
    "gemma3-1b": (302e6, 698e6, 2.0),
    "gemma3-4b": (675e6, 3209e6, 8.0),
    "gemma3-12b": (1012e6, 10759e6, 24.0),
    "gemma3-27b": (1416e6, 25600e6, 54.0),
}

# A planning preset file: the parameter counts, then a full toy-like model config
COUNTS = "embedding_params = 1000\nnon_embedding_params = 2000\n"
TOY_SHAPES = ("n_layers = 6\nd_model = 64\nhidden_dim = 128\nvocab_size = 260\n"
              "num_query_heads = 4\nnum_kv_heads = 2\nhead_dim = 16\nwindow = 16\n"
              "max_context = 64\n")


class TestWeightBytes:
    def test_bf16_is_two_bytes_per_param(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            e = int(rng.integers(0, 10**10))
            n = int(rng.integers(0, 10**10))
            assert weight_bytes(e, n, SCHEMES["bf16"]) == 2 * (e + n)

    def test_1b_bf16(self):
        assert weight_bytes(302e6, 698e6, SCHEMES["bf16"]) / GB == pytest.approx(2.0)

    def test_27b_bf16(self):
        got = weight_bytes(1416e6, 25600e6, SCHEMES["bf16"]) / GB
        assert got == pytest.approx(54.032)
        assert got == pytest.approx(54.0, rel=0.01)

    def test_zero_params(self):
        for scheme in SCHEMES.values():
            assert weight_bytes(0, 0, scheme) == 0

    def test_blockwise_scale_overhead(self):
        scheme = SCHEMES["int4_block32"]
        plain = SCHEMES["int4"]
        n = 32_000_000
        assert weight_bytes(0, n, scheme) == weight_bytes(0, n, plain) + (n / 32) * 2

    def test_scheme_ordering(self):
        # int4 variants < sfp8 < bf16 whenever there is a real model behind it
        rng = np.random.default_rng(1)
        for _ in range(20):
            e = int(rng.integers(0, 10**9))
            n = int(rng.integers(1, 10**10))
            int4 = weight_bytes(e, n, SCHEMES["int4"])
            int4b = weight_bytes(e, n, SCHEMES["int4_block32"])
            sfp8 = weight_bytes(e, n, SCHEMES["sfp8"])
            bf16 = weight_bytes(e, n, SCHEMES["bf16"])
            assert int4 < sfp8 < bf16
            assert int4b < sfp8

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            weight_bytes(-1, 0, SCHEMES["bf16"])

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            PrecisionScheme("bad", 5, 8)
        with pytest.raises(ValueError):
            PrecisionScheme("bad", 4, 8, block_size=32)  # missing scale bits


class TestReport:
    def test_kv_delta_constant_across_schemes(self):
        # one KV term, shared by every precision column: each total is
        # exactly weights + kv_gb (bitwise), for any preset and context
        for name in PUBLISHED:
            for context in (0, 1024, 32768, 131072):
                rep = report(load_preset(name), context=context, kv_bits=8)
                for scheme in rep.weights_gb:
                    assert rep.totals_gb[scheme] == rep.weights_gb[scheme] + rep.kv_gb

    def test_context_zero_has_no_kv(self):
        rep = report(load_preset("gemma3-1b"), context=0, kv_bits=8)
        assert rep.kv_gb == 0.0
        assert rep.totals_gb == rep.weights_gb

    def test_negative_context_rejected(self):
        with pytest.raises(ValueError):
            report(load_preset("gemma3-1b"), context=-5)

    def test_kv_grows_with_context(self):
        preset = load_preset("gemma3-27b")
        small = report(preset, context=1024).kv_gb
        big = report(preset, context=131072).kv_gb
        assert big > small > 0

    def test_json_round_trip(self):
        rep = report(load_preset("gemma3-4b"), context=32768)
        parsed = MemoryReport.from_dict(json.loads(rep.to_json()))
        assert parsed == rep

    @pytest.mark.parametrize("edit", [
        lambda d: d["totals_gb"].update(bf16=d["totals_gb"]["bf16"] + 1e-9),
        lambda d: d["totals_gb"].pop("int4"),
        lambda d: d["totals_gb"].update(fp2=1.0),
        lambda d: d.update(kv_gb=d["kv_gb"] * 2),
        lambda d: d["weights_gb"].update(bf16="8.0"),
        lambda d: d["weights_gb"].update(bf16=-1.0),
        lambda d: d.update(kv_gb=float("nan")),
        lambda d: d.update(context=-1),
        lambda d: d.update(context=32768.0),
        lambda d: d.update(kv_bits=True),
        lambda d: d.update(model=None),
        lambda d: d.update(extra=1),
        lambda d: d.pop("kv_bits"),
        lambda d: d.update(weights_gb=[1.0]),
    ])
    def test_from_dict_refuses_a_report_its_parts_do_not_make(self, edit):
        d = json.loads(report(load_preset("gemma3-4b"), context=32768).to_json())
        edit(d)
        with pytest.raises(ValueError, match="not a memory report"):
            MemoryReport.from_dict(d)

    def test_table_mentions_every_scheme(self):
        rep = report(load_preset("gemma3-27b"), context=32768)
        table = rep.format_table()
        for scheme in SCHEMES:
            assert scheme in table
        assert "54.0" in table

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="^unknown preset 'gemma3-999b'; available: "):
            load_preset("gemma3-999b")


class TestPresets:
    def test_all_published_presets_ship(self):
        names = list_presets()
        for name in PUBLISHED:
            assert name in names

    def test_metadata_matches_published_counts(self):
        for name, (e, n, _) in PUBLISHED.items():
            preset = load_preset(name)
            assert preset.embedding_params == e
            assert preset.non_embedding_params == n

    def test_bf16_column_against_published_footprints(self):
        # the 4b row is a known 2.9% outlier: the published table rounds to
        # the nominal model size while the parameter counts imply 7.77 GB
        for name, (e, n, want_gb) in PUBLISHED.items():
            got = weight_bytes(e, n, SCHEMES["bf16"]) / GB
            tol = 0.02 if name != "gemma3-4b" else 0.03
            assert got == pytest.approx(want_gb, rel=tol)

    def test_env_dir_shadows_builtin(self, tmp_path, monkeypatch):
        custom = tmp_path / "gemma3-1b.cfg"
        custom.write_text(COUNTS + TOY_SHAPES)
        monkeypatch.setenv("GEMMA_MINI_PRESETS", str(tmp_path))
        assert load_preset("gemma3-1b").embedding_params == 1000
        assert load_preset("gemma3-1b").config.head_dim == 16

    def test_config_is_the_model_config_of_the_file(self):
        # the file's values, less the counts load_preset pops
        for name in PUBLISHED:
            values = {k: v for k, v in preset_values(name).items() if k not in PLANNING_KEYS}
            assert load_preset(name).config == ModelConfig.from_dict(values)


class TestPresetIsAModelConfig:
    def _load(self, tmp_path, monkeypatch, text):
        (tmp_path / "mine.cfg").write_text(text)
        monkeypatch.setenv("GEMMA_MINI_PRESETS", str(tmp_path))
        return load_preset("mine")

    @pytest.mark.parametrize("context", [1, 15, 16, 17, 40, 64])
    def test_planned_kv_bytes_are_what_make_cache_holds(self, tmp_path, monkeypatch, context):
        # below, at and past the window of 16: float64 keys and values, so 64-bit KV
        preset = self._load(tmp_path, monkeypatch, COUNTS + TOY_SHAPES)
        cfg = preset.config
        cache = make_cache(cfg)
        block = np.zeros((cfg.num_kv_heads, context, cfg.head_dim))
        for layer in range(cfg.n_layers):
            cache.append(layer, block, block, 0)
        held = sum(a.nbytes for arrays in (cache._keys, cache._values) for a in arrays)
        # as the planner divides its bytes: kv_gb * GB can miss held by an ulp (at 40)
        assert report(preset, context=context, kv_bits=64).kv_gb == held / GB

    def test_odd_head_dim_is_refused(self, tmp_path, monkeypatch):
        # RoPE rotates pairs of dimensions: the model refuses an odd head_dim, so the planner does
        text = COUNTS + TOY_SHAPES.replace("head_dim = 16", "head_dim = 15")
        with pytest.raises(ConfigError, match="^preset 'mine': head_dim must be positive and even"):
            self._load(tmp_path, monkeypatch, text)

    def test_planner_only_fields_are_not_a_preset(self, tmp_path, monkeypatch):
        text = COUNTS + "n_layers = 6\nnum_kv_heads = 1\nhead_dim = 16\nwindow = 16\n"
        with pytest.raises(ConfigError, match="^preset 'mine': config is missing required keys: "
                                              "d_model, hidden_dim, vocab_size, max_context"):
            self._load(tmp_path, monkeypatch, text)

    @pytest.mark.parametrize("line, message", [
        ("embedding_params = -1", "embedding_params must be an int >= 0, got -1"),
        ("vision_encoder_params = 2.5", "vision_encoder_params must be an int >= 0, got 2.5"),
        ("non_embedding_params = true", "non_embedding_params must be an int >= 0, got True"),
    ])
    def test_bad_count_is_refused(self, tmp_path, monkeypatch, line, message):
        with pytest.raises(ConfigError, match=f"^preset 'mine': {message}$"):
            self._load(tmp_path, monkeypatch, with_line(COUNTS + TOY_SHAPES, line))
