import dataclasses
from importlib import resources

import pytest

from gemma_mini.errors import ConfigError
from gemma_mini.model import ModelConfig
from gemma_mini.presets import (
    PLANNING_KEYS,
    list_presets,
    load_preset,
    model_config_from_file,
    parse_config_text,
    preset_values,
)


class TestConfigParsing:
    def test_types_are_coerced(self):
        values = parse_config_text(
            "a = 3\nb = 2.5\nc = true\nd = false\ne = hello\n"
        )
        assert values == {"a": 3, "b": 2.5, "c": True, "d": False, "e": "hello"}

    def test_comments_and_blanks_ignored(self):
        values = parse_config_text("# header\n\nn_layers = 4  # inline\n")
        assert values == {"n_layers": 4}

    def test_missing_equals_is_an_error(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config_text("a = 1\nbroken line\n")

    def test_repeated_key_is_an_error(self):
        # the later line would otherwise win without a word
        with pytest.raises(ValueError, match="^line 3: window is already set on line 1$"):
            parse_config_text("window = 8\nn_layers = 2\nwindow = 16\n")

    TINY = ("n_layers = 2\nd_model = 16\nhidden_dim = 32\nvocab_size = 64\n"
            "max_context = 128\nnum_query_heads = 2\nnum_kv_heads = 1\n"
            "head_dim = 8\nwindow = 8\n")

    def test_model_config_from_file(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text(self.TINY + "extra_key = 1\n")
        with pytest.raises(ConfigError, match="^config has unknown keys: 'extra_key'$"):
            model_config_from_file(str(path))
        path.write_text(self.TINY)
        cfg = model_config_from_file(str(path))
        assert isinstance(cfg, ModelConfig)
        assert cfg.n_layers == 2
        assert cfg.window == 8

    @pytest.mark.parametrize("lines, keys", [
        # each typo would otherwise build the field's default: window 1024, ratio 5, scale 1
        ("windw = 16", "'windw'"),
        ("local_per_globl = 1", "'local_per_globl'"),
        ("rope_scale_globl = 8", "'rope_scale_globl'"),
        ("= 16", "''"),
        ("window 8 = 3", "'window 8'"),
        ("windw = 16\n= 16\nwindow 8 = 3", "'', 'window 8', 'windw'"),
    ], ids=["windw", "local_per_globl", "rope_scale_globl", "no-key", "spaced-key", "sorted"])
    def test_unknown_key_is_refused_by_name(self, tmp_path, lines, keys):
        path = tmp_path / "m.cfg"
        path.write_text(self.TINY + lines + "\n")
        with pytest.raises(ConfigError, match=f"^config has unknown keys: {keys}$"):
            model_config_from_file(str(path))


class TestShippedPresets:
    def test_toy_preset_is_a_runnable_config(self):
        cfg = ModelConfig.from_dict(preset_values("toy"))
        assert cfg.vocab_size == 260
        assert cfg.n_layers == 6

    def test_gemma_presets_parse_into_model_configs(self):
        # placeholder architectures still have to be self-consistent
        for name in ("gemma3-1b", "gemma3-4b", "gemma3-12b", "gemma3-27b"):
            cfg = load_preset(name).config
            assert cfg.window == 1024
            assert cfg.rope_local_base == 10_000.0
            assert cfg.rope_global_base == 1_000_000.0

    def test_long_context_models_carry_scale_eight(self):
        for name in ("gemma3-4b", "gemma3-12b", "gemma3-27b"):
            cfg = load_preset(name).config
            assert cfg.rope_scale_global == 8
            assert cfg.max_context == 131072
        assert load_preset("gemma3-1b").config.rope_scale_global == 1

    def test_listing_contains_all_shipped(self):
        names = list_presets()
        for want in ("toy", "gemma3-1b", "gemma3-27b"):
            assert want in names

    def test_vision_params_excluded_from_planning_but_recorded(self):
        preset = load_preset("gemma3-27b")
        assert preset.vision_encoder_params == 417_000_000

    def test_every_key_is_a_field_or_a_planning_key(self):
        """Each shipped .cfg sets every ModelConfig field, so it reads as the
        whole architecture, and besides them only the planning counts, which
        load_preset takes; from_dict refuses any other key."""
        fields = {f.name for f in dataclasses.fields(ModelConfig)}
        shipped = [p for p in (resources.files("gemma_mini") / "presets").iterdir()
                   if p.name.endswith(".cfg")]
        assert len(shipped) == 5
        for path in shipped:
            keys = set(parse_config_text(path.read_text()))
            assert fields <= keys, (path.name, sorted(fields - keys))
            others = keys - fields - set(PLANNING_KEYS)
            assert not others, (path.name, sorted(others))
