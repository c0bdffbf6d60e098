import itertools

import numpy as np
import pytest

from gemma_mini import distill
from gemma_mini.distill import (
    DistillTarget,
    build_targets,
    distill_grad_check,
    distill_loss,
    renormalize,
    run_toy_distillation,
    sample_support,
)
from gemma_mini.model import ModelConfig, forward_full
from gemma_mini.tensor import softmax_rows
from gemma_mini.tokenizer import VOCAB_SIZE
from gemma_mini.train import cross_entropy, train_byte_lm


def full_cross_entropy(student_logits, teacher_probs):
    """Independent scalar oracle: -sum p * log softmax(logits)."""
    probs = softmax_rows(np.asarray(student_logits)[None, :])[0]
    total = 0.0
    for i, p in enumerate(teacher_probs):
        if p > 0:
            total -= p * np.log(probs[i])
    return total


class TestSampleSupport:
    def test_small_vocab_exhaustive(self):
        teacher = np.array([0.4, 0.3, 0.2, 0.1])
        support = sample_support(teacher, k=4, seed=0)
        np.testing.assert_array_equal(support, [0, 1, 2, 3])
        support = sample_support(teacher, k=99, seed=0)
        np.testing.assert_array_equal(support, [0, 1, 2, 3])

    def test_one_hot_teacher(self):
        teacher = np.zeros(16)
        teacher[11] = 1.0
        for seed in range(5):
            support = sample_support(teacher, k=4, seed=seed)
            np.testing.assert_array_equal(support, [11])

    def test_zero_mass_ids_never_drawn(self):
        teacher = np.array([0.5, 0.5, 0.0, 0.0])
        for seed in range(10):
            support = sample_support(teacher, k=2, seed=seed)
            np.testing.assert_array_equal(support, [0, 1])

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(0)
        teacher = rng.dirichlet(np.ones(64))
        a = sample_support(teacher, k=8, seed=7)
        b = sample_support(teacher, k=8, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_distinct_ids(self):
        rng = np.random.default_rng(1)
        teacher = rng.dirichlet(np.ones(64))
        support = sample_support(teacher, k=32, seed=3)
        assert len(set(support.tolist())) == len(support) == 32

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            sample_support(np.zeros(4), k=2, seed=0)
        with pytest.raises(ValueError):
            sample_support(np.array([0.5, 0.2]), k=1, seed=0)  # doesn't sum to 1
        with pytest.raises(ValueError):
            sample_support(np.array([1.0]), k=0, seed=0)


class TestRenormalize:
    def test_full_support_returns_teacher(self):
        teacher = np.array([0.6, 0.3, 0.1])
        target = renormalize(teacher, np.array([0, 1, 2]))
        np.testing.assert_array_equal(target.support, [0, 1, 2])
        np.testing.assert_allclose(target.probs, teacher, atol=1e-15)

    def test_partial_support(self):
        teacher = np.array([0.6, 0.3, 0.1])
        target = renormalize(teacher, np.array([0, 1]))  # id 2 gets no weight
        np.testing.assert_array_equal(target.support, [0, 1])
        np.testing.assert_allclose(target.probs, [2 / 3, 1 / 3], atol=1e-15)

    def test_singleton_is_one_hot(self):
        teacher = np.array([0.6, 0.3, 0.1])
        target = renormalize(teacher, np.array([2]))
        np.testing.assert_array_equal(target.support, [2])
        np.testing.assert_array_equal(target.probs, [1.0])

    def test_ratio_preservation_exact(self):
        # target(i)/target(j) == teacher(i)/teacher(j) on the support
        rng = np.random.default_rng(2)
        teacher = rng.dirichlet(np.ones(32))
        support = sample_support(teacher, k=8, seed=5)
        target = renormalize(teacher, support)
        for a in range(len(support)):
            for b in range(len(support)):
                lhs = target.probs[a] * teacher[support[b]]
                rhs = target.probs[b] * teacher[support[a]]
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            renormalize(np.array([1.0]), np.array([], dtype=np.int64))

    def test_zero_mass_support_rejected(self):
        with pytest.raises(ValueError):
            renormalize(np.array([1.0, 0.0]), np.array([1]))


class TestDistillLoss:
    def test_loss_is_entropy_at_the_optimum(self):
        teacher = np.array([0.5, 0.25, 0.125, 0.125])
        target = renormalize(teacher, np.arange(4))
        loss = distill_loss(np.log(teacher), target)
        entropy = -np.sum(teacher * np.log(teacher))
        assert loss == pytest.approx(entropy, abs=1e-12)

    def test_one_hot_target_is_log_prob(self):
        logits = np.array([2.0, -1.0, 0.5])
        target = DistillTarget(np.array([1]), np.array([1.0]))
        p1 = softmax_rows(logits[None, :])[0, 1]
        assert distill_loss(logits, target) == pytest.approx(-np.log(p1), rel=1e-12)

    def test_matches_hand_loop_oracle(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=8) * 2
        teacher = rng.dirichlet(np.ones(8))
        target = renormalize(teacher, np.arange(8))
        assert distill_loss(logits, target) == pytest.approx(
            full_cross_entropy(logits, teacher), rel=1e-12
        )

    def test_full_support_equals_exact_teacher_ce(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            vocab = 16
            logits = rng.normal(size=vocab) * 3
            teacher = rng.dirichlet(np.ones(vocab))
            support = sample_support(teacher, k=vocab, seed=0)
            target = renormalize(teacher, support)
            assert distill_loss(logits, target) == pytest.approx(
                full_cross_entropy(logits, teacher), abs=1e-12
            )

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=12)
        teacher = rng.dirichlet(np.ones(12))
        target = renormalize(teacher, sample_support(teacher, k=6, seed=1))
        a = distill_loss(logits, target)
        b = distill_loss(logits + 500.0, target)
        assert a == pytest.approx(b, abs=1e-12)


class TestDistillGrad:
    def test_uniform_stationary_point(self):
        vocab = 8
        target = renormalize(np.full(vocab, 1 / vocab), np.arange(vocab))
        _, grad = window_ce(np.zeros((1, vocab)), one_row(target))
        np.testing.assert_allclose(grad, 0.0, atol=1e-15)

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=10)
        teacher = rng.dirichlet(np.ones(10))
        target = renormalize(teacher, sample_support(teacher, k=4, seed=2))
        _, grad = window_ce(logits[None], one_row(target))
        assert grad.sum() == pytest.approx(0.0, abs=1e-12)

    def test_central_difference_check(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=16) * 2
        teacher = rng.dirichlet(np.ones(16))
        target = renormalize(teacher, sample_support(teacher, k=8, seed=3))
        assert distill_grad_check(logits, target, h=1e-5) < 1e-5

    def test_step_size_validated(self):
        target = renormalize(np.array([1.0]), np.array([0]))
        with pytest.raises(ValueError):
            distill_grad_check(np.zeros(1), target, h=1e-2)


def window_ce(logits, targets):
    """The student's loss and d(logits) over a window's targets."""
    return cross_entropy(logits, targets.support, targets.probs)


def one_row(target):
    """A one-position target as a one-row window's."""
    return DistillTarget(target.support[None], target.probs[None])


def position(target, t):
    """Row t of a window's target as a one-position target, padding dropped."""
    drawn = target.probs[t] > 0
    return DistillTarget(target.support[t][drawn], target.probs[t][drawn])


class TestSequenceTargets:
    def test_build_targets_shapes(self):
        rng = np.random.default_rng(8)
        teacher_logits = rng.normal(size=(5, 32))
        targets = build_targets(teacher_logits, k=8, seed=0)
        assert targets.support.shape == targets.probs.shape == (5, 8)
        for t in range(5):
            assert len(position(targets, t).support) == 8
            assert targets.probs[t].sum() == pytest.approx(1.0)

    def test_sequence_grad_matches_per_position(self):
        rng = np.random.default_rng(9)
        student_logits = rng.normal(size=(4, 16))
        teacher_logits = rng.normal(size=(4, 16))
        # extra input: row 2's softmax underflows to exact zeros, only id 0 has mass
        underflowed = teacher_logits.copy()
        underflowed[2] = -1000.0
        underflowed[2, 0] = 0.0
        for teacher, k in ((teacher_logits, 16), (underflowed, 8)):
            targets = build_targets(teacher, k=k, seed=1)
            loss, grad = window_ce(student_logits, targets)
            per_pos = [distill_loss(student_logits[t], position(targets, t)) for t in range(4)]
            assert loss == pytest.approx(np.mean(per_pos), rel=1e-12)
            for t in range(4):
                _, g = window_ce(student_logits[t][None], one_row(position(targets, t)))
                np.testing.assert_allclose(grad[t], g[0] / 4, atol=1e-12)
        # the underflowed window: row 2 is one-hot on id 0 and padded to width 8,
        # so its gradient is softmax less 1 at id 0 alone
        drawn = targets.probs[2] > 0
        np.testing.assert_array_equal(targets.support[2][drawn], [0])
        np.testing.assert_array_equal(targets.probs[2][drawn], [1.0])
        assert targets.support.shape == (4, 8)
        want = softmax_rows(student_logits[2]) - np.eye(16)[0]
        np.testing.assert_allclose(grad[2], want / 4, rtol=0, atol=1e-15)
        with pytest.raises(ValueError):  # padding is not a one-position target
            DistillTarget(targets.support[2], targets.probs[2])

    def test_window_target_validation(self):
        support = np.array([[0, 1, 2], [3, 4, 5]])
        probs = np.array([[0.5, 0.3, 0.2], [1.0, 0.0, 0.0]])  # row 1 padded
        # at uniform logits the gradient is (1/6 - the dense target) / 2
        _, grad = window_ce(np.zeros((2, 6)), DistillTarget(support, probs))
        dense = [[0.5, 0.3, 0.2, 0, 0, 0], [0, 0, 0, 1, 0, 0]]
        np.testing.assert_allclose(grad, (1 / 6 - np.array(dense)) / 2, rtol=0, atol=1e-15)
        bad = [
            (np.array([[0, 1, 2], [3, 4, 3]]), probs),  # repeated id in one row
            (support, np.array([[0.8, 0.2, 0.0], [1.0, 0.0, 0.0]])),  # wider than any row
            (support, np.array([[0.5, 0.3, 0.2], [1.2, -0.2, 0.0]])),  # negative weight
            (support, np.array([[0.5, 0.3, 0.2], [0.9, 0.0, 0.0]])),  # row sums to 0.9
            (support, probs[:, :2]),  # misaligned
        ]
        for s, p in bad:
            with pytest.raises(ValueError):
                DistillTarget(s, p)


def sequential_support(teacher_probs, k, seed):
    """The sampler the Gumbel top-k replaced, kept as the oracle: numpy draws
    min(k, #nonzero) ids one after another without replacement."""
    rng = np.random.default_rng(seed)
    size = min(k, int(np.count_nonzero(teacher_probs)))
    return np.sort(rng.choice(len(teacher_probs), size=size, replace=False, p=teacher_probs))


def exact_inclusion(p, k):
    """P(id is drawn) in k draws without replacement, each proportional to the
    mass left, summed over every ordered draw."""
    inclusion = np.zeros(len(p))
    for order in itertools.permutations(range(len(p)), k):
        prob, left = 1.0, 1.0
        for i in order:
            prob, left = prob * p[i] / left, left - p[i]
        inclusion[list(order)] += prob
    return inclusion


ORACLE_TEACHERS = [(0.55, 0.25, 0.15, 0.05), (0.4, 0.3, 0.15, 0.1, 0.05)]
ORACLE_DRAWS = 2000  # supports per case: seeds 0..1999, or 4 seeds x 500 rows


class TestSamplerOracle:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("teacher", ORACLE_TEACHERS, ids=["vocab4", "vocab5"])
    @pytest.mark.parametrize("sampler", ["sequential", "one-position", "window-rows"])
    def test_inclusion_frequencies_match_enumeration(self, sampler, teacher, k):
        """Each id's share of supports lies within 5 binomial standard
        deviations of its exact inclusion probability."""
        p = np.array(teacher)
        exact = exact_inclusion(p, k)
        assert exact.sum() == pytest.approx(k, abs=1e-12)
        if sampler == "sequential":
            supports = [sequential_support(p, k, seed) for seed in range(ORACLE_DRAWS)]
        elif sampler == "one-position":
            supports = [sample_support(p, k=k, seed=seed) for seed in range(ORACLE_DRAWS)]
        else:
            window = np.tile(p, (ORACLE_DRAWS // 4, 1))
            supports = np.concatenate([sample_support(window, k=k, seed=s) for s in range(4)])
        supports = np.asarray(supports)
        assert supports.shape == (ORACLE_DRAWS, k)
        freq = np.bincount(supports.ravel(), minlength=len(p)) / ORACLE_DRAWS
        bound = 5 * np.sqrt(exact * (1 - exact) / ORACLE_DRAWS)
        assert np.all(np.abs(freq - exact) <= bound), (freq, exact, bound)


# One kilobyte of iid 5-letter words with Zipf-like frequencies. Every
# k-gram recurs with stochastic continuations, so a model whose receptive
# field is capped cannot memorize the particular stream and is forced to
# learn the word statistics instead.
WORDS = ["crane", "stone", "brick", "gleam", "frost", "pluck", "swift", "moons"]
WORD_WEIGHTS = np.array([0.35, 0.22, 0.15, 0.10, 0.07, 0.05, 0.035, 0.025])


def word_corpus(n_words=200, seed=5):
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(WORDS), size=n_words, p=WORD_WEIGHTS)
    return list("".join(WORDS[i] for i in picks).encode())


def _cfg(layers, d, head_dim, window):
    return ModelConfig(
        n_layers=layers, d_model=d, hidden_dim=2 * d, vocab_size=VOCAB_SIZE,
        max_context=1024, num_query_heads=4, num_kv_heads=2,
        head_dim=head_dim, window=window,
    )


class TestTeacherQueries:
    @staticmethod
    def _run(monkeypatch, corpus, batch_len, student_steps):
        """Distill on corpus; return the teacher forward passes and the bytes
        of every window the student trained on."""
        calls, windows = [], []

        def counting_forward_full(params, cfg, tokens, *args, **kwargs):
            calls.append(cfg)
            return forward_full(params, cfg, tokens, *args, **kwargs)

        def recording_train_byte_lm(cfg, data, *args, loss=None, **kwargs):
            def recording_loss(window, logits):
                windows.append(window.tobytes())
                return loss(window, logits)

            if loss is not None:
                kwargs["loss"] = recording_loss
            return train_byte_lm(cfg, data, *args, **kwargs)

        monkeypatch.setattr(distill, "forward_full", counting_forward_full)
        monkeypatch.setattr(distill, "train_byte_lm", recording_train_byte_lm)
        teacher_cfg = _cfg(2, 16, 4, window=4)
        student_cfg = _cfg(1, 16, 4, window=4)
        run_toy_distillation(
            corpus, teacher_cfg, student_cfg, teacher_steps=1,
            student_steps=student_steps, k=8, batch_len=batch_len,
        )
        assert all(cfg is teacher_cfg for cfg in calls)
        return calls, windows

    def test_full_batch_queries_the_teacher_once(self, monkeypatch):
        """Every full-batch step trains on the same window, so the teacher's
        targets for it are computed once and reused."""
        calls, windows = self._run(
            monkeypatch, word_corpus(n_words=12), batch_len=None, student_steps=3
        )
        assert len(windows) == 3 and len(calls) == 1

    def test_random_windows_reuse_only_the_two_end_windows(self, monkeypatch):
        """Clamped draws keep landing on the first and last window of the
        training head, and those targets are computed once. Any other window
        is recomputed each time it is drawn, so at most two windows' targets
        are kept however long the run."""
        corpus = word_corpus(n_words=12)
        train = np.asarray(corpus[: int(len(corpus) * 0.8)], dtype=np.int64)
        first, last = train[:9].tobytes(), train[-9:].tobytes()
        calls, windows = self._run(monkeypatch, corpus, batch_len=8, student_steps=40)
        ends = [w for w in windows if w in (first, last)]
        middle = [w for w in windows if w not in (first, last)]
        # the run exercises both rules: end windows and middle windows recur
        assert len(ends) > len(set(ends)) == 2
        assert len(middle) > len(set(middle))
        assert len(calls) == 2 + len(middle)


class TestRunChecksBeforeTraining:
    """Bad arguments are refused before the teacher's run, not after it."""

    @pytest.mark.parametrize("student, kwargs, match", [
        (_cfg(1, 16, 4, window=4), dict(k=0), "k must be"),
        (_cfg(1, 16, 4, window=4), dict(batch_len=0), "batch_len"),
        (ModelConfig(n_layers=1, d_model=16, hidden_dim=32, vocab_size=VOCAB_SIZE,
                     max_context=64, num_query_heads=4, num_kv_heads=2, head_dim=4,
                     window=4), dict(batch_len=128), "batch_len"),
        # full batch: the 12-word corpus's 48-token head has 47 targets
        (ModelConfig(n_layers=1, d_model=16, hidden_dim=32, vocab_size=VOCAB_SIZE,
                     max_context=32, num_query_heads=4, num_kv_heads=2, head_dim=4,
                     window=4), dict(batch_len=None),
         r"window of 47 targets must lie in \[1, 32\], the smaller max_context"),
        (ModelConfig(n_layers=1, d_model=16, hidden_dim=32, vocab_size=300,
                     max_context=1024, num_query_heads=4, num_kv_heads=2, head_dim=4,
                     window=4), dict(), "vocab_size"),
    ], ids=["k-0", "batch_len-0", "batch_len-above-max_context", "head-above-max_context",
            "vocab-mismatch"])
    def test_refused_before_any_training(self, monkeypatch, student, kwargs, match):
        runs = []

        def counting_train_byte_lm(*args, **kw):
            runs.append(args)
            return train_byte_lm(*args, **kw)

        monkeypatch.setattr(distill, "train_byte_lm", counting_train_byte_lm)
        args = {**dict(teacher_steps=40, student_steps=1, k=8, batch_len=16), **kwargs}
        with pytest.raises(ValueError, match=match):
            run_toy_distillation(word_corpus(n_words=12), _cfg(2, 16, 4, window=4), student,
                                 **args)
        assert runs == []

    def test_corpus_ids_checked_before_any_training(self, monkeypatch):
        # the corpus's last id is only a target of the held-out score
        monkeypatch.setattr(distill, "train_byte_lm", lambda *a, **k: pytest.fail("trained"))
        student = _cfg(1, 16, 4, window=4)
        with pytest.raises(ValueError, match="token ids must lie"):
            run_toy_distillation(word_corpus(n_words=12) + [VOCAB_SIZE],
                                 _cfg(2, 16, 4, window=4), student)


class TestWindowSeeds:
    def test_window_seed_is_a_function_of_seed_and_window(self):
        w = np.arange(9)
        assert distill.window_seed(0, w) == distill.window_seed(0, w.copy())
        others = [np.arange(1, 10), np.arange(8), np.append(np.arange(8), 0)]
        seeds = {distill.window_seed(0, x) for x in [w, *others]}
        seeds.add(distill.window_seed(1, w))
        assert len(seeds) == 5

    def test_each_window_samples_with_its_own_seed(self, monkeypatch):
        """Random windows of a run: every teacher query of one window uses one
        seed, and no two windows share a seed."""
        queries = []  # [teacher input tokens, support seed] per teacher query

        def recording_forward_full(params, cfg, tokens, *args, **kwargs):
            queries.append([np.asarray(tokens).tobytes()])
            return forward_full(params, cfg, tokens, *args, **kwargs)

        def recording_build_targets(teacher_logits, k, seed):
            queries[-1].append(seed)
            return build_targets(teacher_logits, k=k, seed=seed)

        monkeypatch.setattr(distill, "forward_full", recording_forward_full)
        monkeypatch.setattr(distill, "build_targets", recording_build_targets)
        run_toy_distillation(
            word_corpus(n_words=12), _cfg(2, 16, 4, window=4), _cfg(1, 16, 4, window=4),
            teacher_steps=1, student_steps=40, k=8, batch_len=8,
        )
        seeds_of = {}
        for window, seed in queries:
            seeds_of.setdefault(window, set()).add(seed)
        assert len(queries) > len(seeds_of) > 2  # some windows recur
        assert all(len(seeds) == 1 for seeds in seeds_of.values())
        assert len(set.union(*seeds_of.values())) == len(seeds_of)


@pytest.mark.slow
class TestDistilledStudentBeatsHardLabels:
    def test_lower_held_out_ce_than_hard_labels(self):
        """Same student, same steps: soft targets beat one-hot labels.

        The teacher's window of 2 keeps it at the word statistics (it
        physically cannot index into the training stream), so its sampled
        targets cap how sharp the student can get; the hard-label arm has a
        64-token window and overfits the training half instead. Validated
        across seeds 0-5 before pinning (margins +0.18 to +0.92); the
        slowest test in the suite.
        """
        corpus = word_corpus()
        assert len(corpus) == 1000
        teacher_cfg = _cfg(4, 48, 12, window=2)
        student_cfg = _cfg(2, 48, 12, window=64)
        result = run_toy_distillation(
            corpus, teacher_cfg, student_cfg,
            teacher_steps=250, student_steps=200, k=256, seed=0,
            lr=5e-3, batch_len=None, train_frac=0.5, compare_hard_labels=True,
        )
        assert result.held_out_ce_distilled < result.held_out_ce_hard, (
            f"distilled {result.held_out_ce_distilled:.4f} vs "
            f"hard {result.held_out_ce_hard:.4f}"
        )
