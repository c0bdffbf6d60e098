"""Tests of the benchmark's tracer: self-time arithmetic and patch hygiene.

Run with the repository's suite, or alone:
    PYTHONPATH=src python -m pytest -q perfbench/test_tracer.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gemma_mini  # noqa: E402
from gemma_mini import attention, kvcache, model, presets, tensor, train  # noqa: E402

import layers  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import E2E_UNITS  # noqa: E402


def span(name, start, end, parent=-1):
    return [name, start, end, parent, None]


def test_self_time_subtracts_nested_children():
    spans = [
        span("root", 0, 100),
        span("a", 10, 30, parent=0),
        span("b", 50, 90, parent=0),
        span("b.child", 60, 70, parent=2),
    ]
    assert tracing.self_times(spans) == [100 - 20 - 40, 20, 40 - 10, 10]


def test_self_time_counts_covered_time_once():
    # overlapping children and a child running past its parent's end
    spans = [
        span("root", 0, 100),
        span("x", 10, 40, parent=0),
        span("y", 30, 60, parent=0),
        span("z", 90, 120, parent=0),
    ]
    assert tracing.self_times(spans)[0] == 100 - (60 - 10) - (100 - 90)


def test_summarize_sums_calls_and_self_time():
    spans = [span("f", 0, 10), span("g", 2, 5, parent=0), span("f", 20, 24)]
    summary = tracing.summarize(spans)
    assert summary["f"] == {"calls": 2, "self_ns": 7 + 4, "total_ns": 14}
    assert summary["g"] == {"calls": 1, "self_ns": 3, "total_ns": 3}


def sites_of(fn):
    """Every (module, attribute) of the package bound to fn."""
    return [
        (mod, attr) for mod in tracing._package_modules("gemma_mini")
        for attr, val in vars(mod).items() if val is fn
    ]


def test_install_patches_every_import_site_and_uninstall_restores_them():
    originals = {
        "rms_norm": (tensor.rms_norm, sites_of(tensor.rms_norm)),
        "softmax_rows": (tensor.softmax_rows, sites_of(tensor.softmax_rows)),
        "forward_full": (model.forward_full, sites_of(model.forward_full)),
    }
    # tensor, attention, model, the package root and train import these names
    assert {m.__name__ for m, _ in originals["rms_norm"][1]} >= {
        "gemma_mini", "gemma_mini.tensor", "gemma_mini.attention", "gemma_mini.model"}
    assert "gemma_mini.train" in {m.__name__ for m, _ in originals["softmax_rows"][1]}
    append, view, step = kvcache.KvCache.append, kvcache.KvCache.view, train.Adam.step

    t = tracing.Tracer("gemma_mini", layers.LAYERS)
    t.install()
    try:
        for fn, sites in originals.values():
            wrappers = {id(getattr(mod, attr)) for mod, attr in sites}
            assert len(wrappers) == 1
            assert all(getattr(mod, attr).__traced__ is fn for mod, attr in sites)
        assert kvcache.KvCache.append.__traced__ is append
        assert train.Adam.step.__traced__ is step
        assert tracing.find_wrapped("gemma_mini")
        with pytest.raises(RuntimeError):
            t.install()
    finally:
        t.uninstall()

    for fn, sites in originals.values():
        assert all(getattr(mod, attr) is fn for mod, attr in sites)
    assert kvcache.KvCache.append is append
    assert kvcache.KvCache.view is view
    assert train.Adam.step is step
    assert gemma_mini.rms_norm is tensor.rms_norm
    assert attention.rms_norm is tensor.rms_norm
    assert tracing.find_wrapped("gemma_mini") == []


def test_traced_decode_records_nested_spans_and_probes():
    cfg = model.ModelConfig.from_dict(presets.preset_values("toy"))
    params = model.init_params(cfg, seed=0)
    probes = layers.Probes()
    t = tracing.Tracer("gemma_mini", layers.LAYERS, probes.observers())
    t.install()
    try:
        t.request = "r0"
        cache = model.make_cache(cfg)
        model.forward(params, cfg, [1, 2, 3], cache)
        probes.end_request()
    finally:
        t.uninstall()

    names = [s[0] for s in t.spans]
    assert names.count("model.decode_step") == 3
    assert names.count("kvcache.KvCache.append") == 3 * cfg.n_layers
    by_index = dict(enumerate(t.spans))
    for s in t.spans:
        if s[0] == "kvcache.KvCache.append":
            assert by_index[s[3]][0] == "model.decode_step"
        assert s[4] == "r0"
        assert s[1] <= s[2]
    self_ns = tracing.self_times(t.spans)
    assert all(x >= 0 for x in self_ns)
    assert probes.prefill_tokens == 3
    expected = kvcache.kv_bytes(cfg.kinds(), 3, cfg.num_kv_heads, cfg.head_dim, 8, cfg.window)
    assert probes.live == [expected["total"]]
    kv_elems = sum(cfg.window if k is attention.LayerKind.LOCAL else cfg.max_context
                   for k in cfg.kinds()) * 2 * cfg.num_kv_heads * cfg.head_dim
    assert probes.reserved == [kv_elems * 8]
    assert probes.local_allowed == probes.local_total > 0
    logits = model.forward(params, cfg, [1, 2, 3])
    assert np.all(np.isfinite(logits))


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
