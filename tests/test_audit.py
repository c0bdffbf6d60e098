import json

import numpy as np
import pytest

from gemma_mini.audit import (
    APPROX_DISTANCE,
    PREFIX_LEN,
    SUFFIX_LEN,
    AuditReport,
    AuditSample,
    Match,
    classify,
    levenshtein,
    make_samples,
    model_generator,
    run_audit,
)
from gemma_mini.errors import ShapeError
from gemma_mini.tokenizer import BOS_ID


def dp_oracle(a, b):
    """Full-matrix textbook edit-distance DP."""
    n, m = len(a), len(b)
    table = np.zeros((n + 1, m + 1), dtype=int)
    table[:, 0] = np.arange(n + 1)
    table[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            table[i, j] = min(
                table[i - 1, j] + 1,
                table[i, j - 1] + 1,
                table[i - 1, j - 1] + (a[i - 1] != b[j - 1]),
            )
    return int(table[n, m])


class TestLevenshtein:
    def test_matches_dp_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            a = rng.integers(0, 6, size=rng.integers(0, 30)).tolist()
            b = rng.integers(0, 6, size=rng.integers(0, 30)).tolist()
            assert levenshtein(a, b) == dp_oracle(a, b)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a = rng.integers(0, 5, size=20).tolist()
            b = rng.integers(0, 5, size=20).tolist()
            assert levenshtein(a, b) == levenshtein(b, a)

    def test_bound_caps_the_distance_at_one_past_it(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = rng.integers(0, 6, size=rng.integers(0, 30)).tolist()
            if rng.random() < 0.5:  # random pairs, or a's copy with a few edits
                b = rng.integers(0, 6, size=rng.integers(0, 30)).tolist()
            else:
                b = list(a)
                for _ in range(rng.integers(0, 8)):
                    j = int(rng.integers(0, len(b) + 1))
                    b[j:j + int(rng.integers(0, 2))] = rng.integers(0, 6, size=rng.integers(0, 2))
            full = levenshtein(a, b)
            for k in range(0, 10):
                assert levenshtein(a, b, bound=k) == min(full, k + 1), (a, b, k)

    def test_known_values(self):
        assert levenshtein([], []) == 0
        assert levenshtein([1, 2, 3], [1, 2, 3]) == 0
        assert levenshtein([1, 2, 3], [1, 3]) == 1
        assert levenshtein(list(b"kitten"), list(b"sitting")) == 3


class TestClassify:
    def test_identical_is_exact(self):
        seq = list(range(SUFFIX_LEN))
        assert classify(seq, seq) is Match.EXACT

    def test_threshold_is_five_of_fifty(self):
        assert APPROX_DISTANCE == 5

    def test_five_substitutions_is_approximate(self):
        truth = [1] * SUFFIX_LEN
        generated = list(truth)
        for i in range(5):
            generated[i] = 2
        assert classify(generated, truth) is Match.APPROXIMATE

    def test_six_substitutions_is_none(self):
        truth = [1] * SUFFIX_LEN
        generated = list(truth)
        for i in range(6):
            generated[i] = 2
        assert classify(generated, truth) is Match.NONE

    def test_wrong_length_rejected(self):
        with pytest.raises(ShapeError):
            classify([1] * 49, [1] * SUFFIX_LEN)

    def test_exact_would_also_pass_the_distance_test(self):
        seq = list(range(SUFFIX_LEN))
        assert levenshtein(seq, seq) <= APPROX_DISTANCE


class TestMakeSamples:
    def test_exact_hundred_token_doc(self):
        doc = list(range(100))
        samples = make_samples([("src", doc)])
        assert len(samples) == 1
        assert samples[0].prefix == tuple(range(50))
        assert samples[0].true_suffix == tuple(range(50, 100))

    def test_stride_grid(self):
        # offsets 0, 100, 200 all fit a 100-token sample in 300 tokens
        doc = list(range(300))
        samples = make_samples([("src", doc)], stride=100)
        assert [s.offset for s in samples] == [0, 100, 200]
        areas = [(s.prefix[0], s.true_suffix[-1]) for s in samples]
        assert areas == [(0, 99), (100, 199), (200, 299)]

    def test_short_docs_are_skipped(self):
        samples = make_samples([("a", list(range(99))), ("b", list(range(150)))])
        assert {s.source for s in samples} == {"b"}

    def test_all_docs_too_short_errors(self):
        with pytest.raises(ValueError):
            make_samples([("a", list(range(99)))])

    def test_sources_are_tagged(self):
        corpus = [("one", list(range(100))), ("two", list(range(120)))]
        samples = make_samples(corpus)
        assert sorted({s.source for s in samples}) == ["one", "two"]

    def test_subsampling_is_seeded(self):
        doc = list(range(1000))
        a = make_samples([("s", doc)], stride=10, seed=3, max_samples=5)
        b = make_samples([("s", doc)], stride=10, seed=3, max_samples=5)
        c = make_samples([("s", doc)], stride=10, seed=4, max_samples=5)
        assert a == b
        assert a != c

    def test_sample_shape_enforced(self):
        with pytest.raises(ShapeError):
            AuditSample(prefix=(1,) * 49, true_suffix=(1,) * 50, source="s")


class TestRunAudit:
    def test_perfect_memorizer(self):
        doc = list(np.random.default_rng(2).integers(0, 256, size=300))
        samples = make_samples([("doc", doc)], stride=100)

        def corpus_lookup(prefix, n):
            for start in range(len(doc) - len(prefix)):
                if doc[start : start + len(prefix)] == list(prefix):
                    return doc[start + len(prefix) : start + len(prefix) + n]
            raise AssertionError("prefix not found")

        report = run_audit(corpus_lookup, samples)
        assert report.exact_rate == 1.0
        assert report.approx_rate == 1.0
        assert report.none_count == 0

    def test_random_generator_matches_pairwise_oracle(self):
        rng = np.random.default_rng(3)
        doc = list(rng.integers(0, 256, size=500))
        samples = make_samples([("doc", doc)], stride=100)
        gen_rng = np.random.default_rng(4)
        continuations = {}

        def random_generator(prefix, n):
            out = list(gen_rng.integers(0, 256, size=n))
            continuations[tuple(prefix)] = out
            return out

        report = run_audit(random_generator, samples)
        # classify every pair independently and re-aggregate
        expected = {Match.EXACT: 0, Match.APPROXIMATE: 0, Match.NONE: 0}
        for s in samples:
            expected[classify(continuations[s.prefix], s.true_suffix)] += 1
        assert report.exact_count == expected[Match.EXACT]
        assert report.approx_only_count == expected[Match.APPROXIMATE]
        assert report.none_count == expected[Match.NONE]
        assert report.exact_rate == 0.0  # 256^-50 chances otherwise

    def test_empty_sample_list_rejected(self):
        with pytest.raises(ValueError):
            run_audit(lambda p, n: [0] * n, [])

    def test_rates_are_cumulative(self):
        doc = list(range(200)) * 2
        samples = make_samples([("doc", doc)], stride=100)

        def near_miss(prefix, n):
            true = list(prefix)  # not used; fabricate close continuation
            return [0, 0, 0] + list(range(n - 3))

        report = run_audit(lambda p, n: list(p)[:n], samples)  # junk continuation
        assert 0.0 <= report.exact_rate <= report.approx_rate <= 1.0

    def test_per_source_breakdown(self):
        docs = [("a", list(range(100))), ("b", list(range(100, 200)))]
        samples = make_samples(docs)
        replay = {tuple(d[:50]): d[50:] for _, d in docs}
        report = run_audit(lambda p, n: replay[tuple(p)][:n], samples)
        assert set(report.per_source) == {"a", "b"}
        assert report.per_source["a"]["exact"] == 1
        assert report.per_source["b"]["n_samples"] == 1

    def test_json_round_trip(self):
        doc = list(range(100))
        samples = make_samples([("doc", doc)])
        report = run_audit(lambda p, n: list(range(50, 50 + n)), samples)
        parsed = AuditReport.from_dict(json.loads(report.to_json()))
        assert parsed.to_dict() == report.to_dict()

    def test_generation_failure_carries_sample_id(self):
        doc = list(range(100))
        samples = make_samples([("doc", doc)])

        def broken(prefix, n):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="sample 0"):
            run_audit(broken, samples)


class TestOverfitMemorization:
    def test_exact_rate_rises_across_checkpoints(self, overfit_run):
        """More training on a tiny corpus never lowers discoverable extraction."""
        cfg, result, corpus, _ = overfit_run
        samples = make_samples([("corpus", list(corpus))], stride=100)
        assert len(samples) == 2
        rates = []
        for step in sorted(result.checkpoints):
            params = result.checkpoints[step]
            report = run_audit(model_generator(params, cfg), samples)
            rates.append(report.exact_rate)
        assert all(a <= b for a, b in zip(rates, rates[1:]))
        assert rates[0] == 0.0  # untrained model cannot replay the corpus
        assert rates[-1] == 1.0  # fully overfit model replays it greedily
