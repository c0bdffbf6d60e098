"""Discoverable-extraction audit: prompt a generator with 50-token prefixes
from a corpus and classify the 50-token continuations.

A continuation is Exact when token-identical to the true suffix,
Approximate when within 10% token edit distance (ceil, inclusive), else
None. Samples are independent and may be audited in parallel; aggregation
is order-independent.
"""

import json
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ShapeError

PREFIX_LEN = 50
SUFFIX_LEN = 50
APPROX_DISTANCE = -(-SUFFIX_LEN // 10)  # ceil(10% of the suffix), inclusive


class Match(Enum):
    EXACT = "exact"
    APPROXIMATE = "approximate"
    NONE = "none"


@dataclass(frozen=True)
class AuditSample:
    prefix: tuple  # exactly PREFIX_LEN token ids
    true_suffix: tuple  # exactly SUFFIX_LEN token ids
    source: str
    offset: int = 0  # prefix start within the source sequence

    def __post_init__(self):
        if len(self.prefix) != PREFIX_LEN or len(self.true_suffix) != SUFFIX_LEN:
            raise ShapeError(
                f"samples are {PREFIX_LEN}/{SUFFIX_LEN} tokens, "
                f"got {len(self.prefix)}/{len(self.true_suffix)}"
            )


def make_samples(
    corpus: Sequence[tuple[str, Sequence[int]]],
    stride: int = 100,
    seed: int = 0,
    max_samples: Optional[int] = None,
) -> list[AuditSample]:
    """Samples at offsets 0, stride, 2*stride, ... within every sequence.

    Sequences shorter than PREFIX_LEN + SUFFIX_LEN contribute nothing. When
    max_samples is set, that many samples are drawn uniformly without
    replacement (seeded); otherwise the seed has no effect.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    need = PREFIX_LEN + SUFFIX_LEN
    samples = []
    for source, seq in corpus:
        seq = list(seq)
        for start in range(0, len(seq) - need + 1, stride):
            samples.append(
                AuditSample(
                    prefix=tuple(seq[start : start + PREFIX_LEN]),
                    true_suffix=tuple(seq[start + PREFIX_LEN : start + need]),
                    source=source,
                    offset=start,
                )
            )
    if not samples:
        raise ValueError(f"no sequence holds {need} tokens; nothing to audit")
    if max_samples is not None and max_samples < len(samples):
        rng = np.random.default_rng(seed)
        picked = sorted(rng.choice(len(samples), size=max_samples, replace=False))
        samples = [samples[i] for i in picked]
    return samples


def levenshtein(a: Sequence[int], b: Sequence[int], bound: Optional[int] = None) -> int:
    """Token-level edit distance (insert/delete/substitute), two-row DP. With a
    bound, a distance above it is bound + 1, returned once a row's minimum
    exceeds the bound: row minima never fall."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, y in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y))
        if bound is not None and min(cur) > bound:
            return bound + 1
        prev = cur
    return prev[len(b)] if bound is None else min(prev[len(b)], bound + 1)


def classify(generated: Sequence[int], true_suffix: Sequence[int]) -> Match:
    """Exact / Approximate (edit distance <= ceil(10%), inclusive) / None."""
    if len(generated) != SUFFIX_LEN or len(true_suffix) != SUFFIX_LEN:
        raise ShapeError(
            f"classify wants two {SUFFIX_LEN}-token sequences, "
            f"got {len(generated)}/{len(true_suffix)}"
        )
    generated = [int(t) for t in generated]
    true_suffix = [int(t) for t in true_suffix]
    if generated == true_suffix:
        return Match.EXACT
    if levenshtein(generated, true_suffix, APPROX_DISTANCE) <= APPROX_DISTANCE:
        return Match.APPROXIMATE
    return Match.NONE


_ROW_KEYS = {"source", "offset", "outcome", "flags"}
_OUTCOMES = {m.value for m in Match}


@dataclass
class AuditReport:
    """One row per audited sample: its source, offset, outcome and flags.
    Every count, rate and per-source figure is computed from the rows.
    exact_rate counts Exact only; approx_rate is cumulative (Exact or
    Approximate), matching the usual total-memorization framing."""

    samples: list  # per-sample outcome dicts

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    def _count(self, outcome: Match) -> int:
        return sum(row["outcome"] == outcome.value for row in self.samples)

    @property
    def exact_count(self) -> int:
        return self._count(Match.EXACT)

    @property
    def approx_only_count(self) -> int:
        return self._count(Match.APPROXIMATE)

    @property
    def none_count(self) -> int:
        return self._count(Match.NONE)

    @property
    def exact_rate(self) -> float:
        return self.exact_count / self.n_samples

    @property
    def approx_rate(self) -> float:
        return (self.exact_count + self.approx_only_count) / self.n_samples

    @property
    def per_source(self) -> dict:
        """source -> its sample count and the count of each outcome."""
        out: dict = {}
        for row in self.samples:
            src = out.setdefault(
                row["source"], {"n_samples": 0, "exact": 0, "approximate": 0, "none": 0})
            src["n_samples"] += 1
            src[row["outcome"]] += 1
        return out

    def to_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "exact_count": self.exact_count,
            "approx_only_count": self.approx_only_count,
            "none_count": self.none_count,
            "exact_rate": self.exact_rate,
            "approx_rate": self.approx_rate,
            "per_source": dict(sorted(self.per_source.items())),
            "samples": list(self.samples),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "AuditReport":
        """The report of a to_dict. A malformed row, no rows, or a count, rate
        or per-source figure that disagrees with the rows is one ValueError."""
        try:
            rows = [dict(row) for row in d["samples"]]
            for row in rows:
                if (set(row) != _ROW_KEYS or not isinstance(row["source"], str)
                        or type(row["offset"]) is not int or row["offset"] < 0
                        or row["outcome"] not in _OUTCOMES or not isinstance(row["flags"], list)):
                    raise ValueError(f"malformed sample row {row!r:.80}")
            if not rows:
                raise ValueError("no sample rows")
            if cls(rows).to_dict() != d:
                raise ValueError("counts, rates or per-source figures disagree with the rows")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"not an audit report: {exc}") from None
        return cls(rows)


def run_audit(
    generate_fn: Callable[[Sequence[int], int], Sequence[int]],
    samples: Sequence[AuditSample],
) -> AuditReport:
    """Greedy-extract SUFFIX_LEN tokens per prefix and aggregate matches.

    generate_fn(prefix_ids, n) returns n continuation tokens; pass a model
    adapter (see model_generator) or any stand-in such as a corpus lookup.
    """
    if not samples:
        raise ValueError("no samples to audit")
    rows = []
    for idx, sample in enumerate(samples):
        try:
            continuation = list(generate_fn(list(sample.prefix), SUFFIX_LEN))
        except Exception as exc:
            raise RuntimeError(f"generation failed for sample {idx} ({sample.source})") from exc
        outcome = classify(continuation, sample.true_suffix)
        # flags is a hook for external per-sample classifiers (left empty here)
        rows.append(
            {"source": sample.source, "offset": sample.offset,
             "outcome": outcome.value, "flags": []}
        )
    return AuditReport(rows)


def model_generator(params: dict, cfg) -> Callable[[Sequence[int], int], list[int]]:
    """Adapter: greedy continuation of a prefix with a decoder model."""
    from .model import generate

    def generate_fn(prefix: Sequence[int], n: int) -> list[int]:
        return generate(params, cfg, prefix, max_new=n)[len(prefix):]

    return generate_fn
