"""Per-layer metrics of a traced run.

The layers are the library's own modules. Times and call counts come from
tracer spans and are divided by the tokens the traced requests processed
(the unit of tok_s), so runs of different length compare. `Probes` holds
the counters measured at layer boundaries; the byte figures are computed
from array sizes and constructor arguments, not measured from the heap.
"""

import numpy as np

import tracer as tracing
from gemma_mini import kvcache
from gemma_mini.attention import LayerKind

LAYERS = ("tensor", "attention", "kvcache", "model", "train", "distill", "audit")
KV_BYTES_PER_ELEM = 8  # float64 cache entries
SAMPLE_SPAN = "bench.sample"  # the extract workload's span around one audit sample

# (metric prefix, span name, fields): fields are timed as calls/tok and ms/tok
TIMED = [
    ("tensor.rms_norm", "tensor.rms_norm", ("calls", "self_ms")),
    ("tensor.softmax_rows", "tensor.softmax_rows", ("calls", "self_ms")),
    ("tensor.rope_apply", "tensor.rope_apply", ("calls", "self_ms")),
    ("attention.build_mask", "attention.build_mask", ("calls", "self_ms")),
    ("attention.qk_norm", "attention.qk_norm", ("calls", "self_ms")),
    ("attention.gqa_attend", "attention.gqa_attend", ("calls", "self_ms")),
    ("kvcache.append", "kvcache.KvCache.append", ("calls", "self_ms")),
    ("kvcache.view", "kvcache.KvCache.view", ("calls", "self_ms")),
    ("model.forward", "model.forward", ("calls", "self_ms")),
    ("model.forward_full", "model.forward_full", ("calls", "self_ms")),
    ("model.decode_step", "model.decode_step", ("calls", "self_ms")),
    ("model.make_cache", "model.make_cache", ("self_ms",)),
    ("train.backward_full", "train.backward_full", ("calls", "self_ms")),
    ("train.Adam.step", "train.Adam.step", ("self_ms",)),
    ("train.cross_entropy", "train.cross_entropy", ("self_ms",)),
    ("distill.build_targets", "distill.build_targets", ("calls", "self_ms")),
    ("distill.sample_support", "distill.sample_support", ("calls", "self_ms")),
    ("distill.sequence_distill_grad", "distill.sequence_distill_grad", ("self_ms",)),
    ("audit.classify", "audit.classify", ("calls", "self_ms")),
    ("audit.levenshtein", "audit.levenshtein", ("calls", "self_ms")),
]
UNITS = {"calls": "calls/tok", "self_ms": "ms/tok"}

# metrics that are not a span's calls or self time, with their units
DERIVED = {
    "tensor.softmax_rows.elems": "elems/tok",
    "attention.local_score_useful_frac": "ratio",
    "kvcache.reserved_bytes": "B_computed",
    "kvcache.live_bytes": "B_computed",
    "kvcache.live_over_reserved": "ratio",
    "model.prefill_ms_per_tok": "ms/tok",
    "model.decode_ms_per_tok": "ms/tok",
    "train.step_ms_p50": "ms",
    "train.step_ms_tail": "ms",
    "train.tape_bytes": "B_computed",
    "distill.teacher_forward_per_step": "ratio",
    "audit.sample_ms_p50": "ms",
    "audit.sample_ms_tail": "ms",
    "trace.tok_s_untraced": "tok/s",
    "trace.tok_s_traced": "tok/s",
    "trace.overhead_pct": "%",
}


def metric_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {f"{prefix}.{f}": UNITS[f] for prefix, _, fields in TIMED for f in fields}
    units.update(DERIVED)
    return units


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Probes:
    """Counters recorded by tracer observers at layer boundaries.

    teacher_cfg/student_cfg let distillation tell teacher inference from
    student steps; other workloads leave them None.
    """

    def __init__(self, teacher_cfg=None, student_cfg=None):
        self.teacher_cfg, self.student_cfg = teacher_cfg, student_cfg
        self.softmax_elems = 0
        self.local_allowed = 0
        self.local_total = 0
        self.reserved: list = []  # per cache, at the end of its request
        self.live: list = []
        self._open_caches: list = []
        self.prefill_ns = self.prefill_tokens = 0
        self.decode_ns = self.decode_tokens = 0
        self.tape_bytes: list = []
        self.step_ms: list = []
        self.teacher_forwards = 0
        self.student_steps = 0

    def observers(self) -> dict:
        return {
            "tensor.softmax_rows": self._softmax,
            "attention.build_mask": self._mask,
            "model.make_cache": self._cache,
            "model.forward": self._forward,
            "model.forward_full": self._forward_full,
            "train.loss_and_grads": self._step,
        }

    def _softmax(self, args, kwargs, result, span):
        self.softmax_elems += np.size(_arg(args, kwargs, 0, "m"))

    def _mask(self, args, kwargs, result, span):
        if _arg(args, kwargs, 0, "kind") is LayerKind.LOCAL:
            self.local_allowed += int(np.count_nonzero(result == 0.0))
            self.local_total += result.size

    def _cache(self, args, kwargs, result, span):
        self._open_caches.append(result)

    def _forward(self, args, kwargs, result, span):
        if _arg(args, kwargs, 3, "cache") is None:
            return
        n = len(_arg(args, kwargs, 2, "tokens"))
        if n > 1:
            self.prefill_ns += span[2] - span[1]
            self.prefill_tokens += n
        elif n == 1:
            self.decode_ns += span[2] - span[1]
            self.decode_tokens += 1

    def _forward_full(self, args, kwargs, result, span):
        tape = result[1]
        if tape is not None:
            arrays = [tape["tokens"], tape["positions"], tape["h_last"], tape["hf"]]
            arrays += [a for layer in tape["layers"] for a in layer.values()
                       if isinstance(a, np.ndarray)]
            self.tape_bytes.append(sum(np.asarray(a).nbytes for a in arrays))
        elif self.teacher_cfg is not None and _arg(args, kwargs, 1, "cfg") == self.teacher_cfg:
            self.teacher_forwards += 1

    def _step(self, args, kwargs, result, span):
        self.step_ms.append((span[2] - span[1]) / 1e6)
        if self.student_cfg is not None and _arg(args, kwargs, 1, "cfg") == self.student_cfg:
            self.student_steps += 1

    def end_request(self) -> None:
        """Account the KV caches made during the request that just ended."""
        for c in self._open_caches:
            slots = [c.window if k is LayerKind.LOCAL else c.max_context for k in c.layer_kinds]
            self.reserved.append(
                sum(2 * s * c.num_kv_heads * c.head_dim * KV_BYTES_PER_ELEM for s in slots))
            if c.next_pos > 0:
                self.live.append(kvcache.kv_bytes(
                    c.layer_kinds, c.next_pos, c.num_kv_heads, c.head_dim,
                    KV_BYTES_PER_ELEM, c.window)["total"])
        self._open_caches = []


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans: list, probes: Probes, tokens: int, tail_pct: float) -> dict:
    """name -> value for every per-layer metric except the trace.* ones.

    A layer the workload never calls reports 0 for its counts, times,
    ratios and percentiles.
    """
    summary = tracing.summarize(spans)
    sample_ms = [(s[2] - s[1]) / 1e6 for s in spans if s[0] == SAMPLE_SPAN]
    out = {}
    for prefix, span, fields in TIMED:
        row = summary.get(span, {"calls": 0, "self_ns": 0})
        if "calls" in fields:
            out[f"{prefix}.calls"] = row["calls"] / tokens
        if "self_ms" in fields:
            out[f"{prefix}.self_ms"] = row["self_ns"] / 1e6 / tokens
    reserved, live = _mean(probes.reserved), _mean(probes.live)
    out.update({
        "tensor.softmax_rows.elems": probes.softmax_elems / tokens,
        "attention.local_score_useful_frac":
            probes.local_allowed / probes.local_total if probes.local_total else 0.0,
        "kvcache.reserved_bytes": reserved,
        "kvcache.live_bytes": live,
        "kvcache.live_over_reserved": live / reserved if reserved else 0.0,
        "model.prefill_ms_per_tok":
            probes.prefill_ns / 1e6 / probes.prefill_tokens if probes.prefill_tokens else 0.0,
        "model.decode_ms_per_tok":
            probes.decode_ns / 1e6 / probes.decode_tokens if probes.decode_tokens else 0.0,
        "train.step_ms_p50": _pct(probes.step_ms, 50),
        "train.step_ms_tail": _pct(probes.step_ms, tail_pct),
        "train.tape_bytes": _mean(probes.tape_bytes),
        "distill.teacher_forward_per_step":
            probes.teacher_forwards / probes.student_steps if probes.student_steps else 0.0,
        "audit.sample_ms_p50": _pct(sample_ms, 50),
        "audit.sample_ms_tail": _pct(sample_ms, tail_pct),
    })
    return out
