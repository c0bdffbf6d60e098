import json

import numpy as np
import pytest

from gemma_mini.memplan import GB, SCHEMES, MemoryReport, PrecisionScheme, report, weight_bytes
from gemma_mini.presets import list_presets, load_preset

# Published reference points: (embedding, non-embedding) parameter counts
# and the bf16 footprint in decimal GB.
PUBLISHED = {
    "gemma3-1b": (302e6, 698e6, 2.0),
    "gemma3-4b": (675e6, 3209e6, 8.0),
    "gemma3-12b": (1012e6, 10759e6, 24.0),
    "gemma3-27b": (1416e6, 25600e6, 54.0),
}


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
        with pytest.raises(KeyError):
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
        custom.write_text(
            "name = gemma3-1b\nembedding_params = 1\nnon_embedding_params = 2\n"
            "n_layers = 6\nnum_kv_heads = 1\nhead_dim = 8\n"
        )
        monkeypatch.setenv("GEMMA_MINI_PRESETS", str(tmp_path))
        assert load_preset("gemma3-1b").embedding_params == 1
