"""Sampled-logit distillation: per token, keep a teacher-weighted sample of
vocabulary entries, zero the rest, renormalize, and train the student with
cross-entropy against that sparse target.

Sampling, targets and the loss work along the last axis: (vocab,) is one
position, (T, vocab) a window. All sampling is seeded and pure. The loss is
train.cross_entropy's, of which a hard label is the one-id case.
"""

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import ModelConfig, _vocab_ids, forward_full
from .tensor import softmax_rows
from .train import _row_ce, cross_entropy, mean_ce, train_byte_lm

SUPPORT_K = 256


@dataclass(frozen=True)
class DistillTarget:
    """Sparse teacher distribution along the last axis: (k,) is one position,
    (T, k) a window. A window is as wide as its widest row; narrower rows are
    padded with zero-mass ids of weight exactly 0."""

    support: np.ndarray  # distinct vocab ids per row
    probs: np.ndarray  # >= 0, each row sums to 1, aligned with support

    def __post_init__(self):
        if self.support.shape != self.probs.shape:
            raise ValueError("support and probs must align")
        if np.any(np.diff(np.sort(self.support, axis=-1), axis=-1) == 0):
            raise ValueError("support ids must be distinct")
        positive = np.sum(self.probs > 0, axis=-1)
        if not np.all(self.probs >= 0) or np.max(positive) < self.probs.shape[-1]:
            raise ValueError("probs must be > 0 on the support, padding of narrower rows aside")
        if not np.all(np.abs(self.probs.sum(axis=-1) - 1.0) <= 1e-12):
            raise ValueError("probs must sum to 1")


def sample_support(
    teacher_probs: np.ndarray, k: int = SUPPORT_K, seed: int = 0
) -> np.ndarray:
    """Per row, min(k, #nonzero) distinct sorted ids drawn without replacement
    in proportion to teacher mass: the top of log p + Gumbel noise (Kool et al.
    2019). A window gives (T, min(k, max #nonzero)); narrower rows are padded
    with zero-mass ids."""
    teacher_probs = np.asarray(teacher_probs, dtype=np.float64)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not np.all(teacher_probs >= 0):
        raise ValueError("teacher probabilities must be >= 0")
    total = teacher_probs.sum(axis=-1)
    if not np.all(np.abs(total - 1.0) <= 1e-9):
        raise ValueError(f"teacher probabilities sum to {total}, expected 1 per row")
    nonzero = np.count_nonzero(teacher_probs, axis=-1)
    if np.any(nonzero == 0):
        raise ValueError("teacher distribution is all zero")
    m = min(k, int(np.max(nonzero)))
    noise = np.random.default_rng(seed).gumbel(size=teacher_probs.shape)
    with np.errstate(divide="ignore"):
        keys = np.log(teacher_probs) + noise  # -inf on zero mass
    return np.sort(np.argpartition(-keys, m - 1, axis=-1)[..., :m], axis=-1)


def renormalize(teacher_probs: np.ndarray, support: np.ndarray) -> DistillTarget:
    """Teacher probabilities restricted to the support and rescaled to sum 1
    per row."""
    teacher_probs = np.asarray(teacher_probs, dtype=np.float64)
    support = np.asarray(support, dtype=np.int64)
    mass = np.take_along_axis(teacher_probs, support, axis=-1)
    total = mass.sum(axis=-1, keepdims=True)
    if not np.all(total > 0):
        raise ValueError("support is empty or holds no teacher mass")
    return DistillTarget(support=support, probs=mass / total)


def distill_loss(student_logits: np.ndarray, target: DistillTarget):
    """Per row, -sum target(i) * log softmax(student)(i) as cross_entropy sums it:
    a float for one position, (n,) for n logit rows against n target rows or one."""
    picked = np.take_along_axis(softmax_rows(student_logits), target.support, axis=-1)
    return _row_ce(picked, target.probs)


def distill_grad_check(
    student_logits: np.ndarray, target: DistillTarget, h: float = 1e-5
) -> float:
    """Max relative error of one position's training gradient (cross_entropy's
    over a one-row window) vs central differences of distill_loss."""
    if not 1e-7 <= h <= 1e-4:
        raise ValueError(f"h must lie in [1e-7, 1e-4], got {h}")
    student_logits = np.asarray(student_logits, dtype=np.float64)
    rows = DistillTarget(target.support[None], target.probs[None])
    analytic = cross_entropy(student_logits[None], rows.support, rows.probs)[1][0]
    bumps = h * np.eye(student_logits.shape[0])  # row j moves logit j
    numeric = (distill_loss(student_logits + bumps, rows)
               - distill_loss(student_logits - bumps, rows)) / (2 * h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# Toy teacher -> student loop
# ---------------------------------------------------------------------------

def build_targets(teacher_logits: np.ndarray, k: int, seed: int) -> DistillTarget:
    """One (T, m) sparse target from a window's teacher logits (T, vocab)."""
    probs = softmax_rows(teacher_logits)
    return renormalize(probs, sample_support(probs, k=k, seed=seed))


def window_seed(seed: int, window: np.ndarray) -> int:
    """Support-sampling seed of one training window, derived from the run's
    seed and the window's tokens: a repeated window draws the same support,
    another window independent noise. The tokens go in as one 128-bit digest,
    which costs a fraction of feeding SeedSequence every token and, unlike
    that, tells [1] from [1, 0] (SeedSequence pads short entropy with zeros)."""
    digest = hashlib.blake2b(np.asarray(window, dtype=np.int64).tobytes(), digest_size=16)
    entropy = [seed, int.from_bytes(digest.digest(), "little")]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


@dataclass
class DistillRunResult:
    step_losses: list[float]
    student_params: dict
    teacher_params: dict
    held_out_ce_distilled: Optional[float] = None
    held_out_ce_hard: Optional[float] = None


def run_toy_distillation(
    corpus_tokens: Sequence[int],
    teacher_cfg: ModelConfig,
    student_cfg: ModelConfig,
    teacher_steps: int = 300,
    student_steps: int = 200,
    k: int = SUPPORT_K,
    seed: int = 0,
    lr: float = 3e-3,
    batch_len: int = 128,
    train_frac: float = 0.8,
    compare_hard_labels: bool = False,
) -> DistillRunResult:
    """Train a teacher on the head of the corpus, distill a student from it,
    and score held-out CE on the tail. Optionally train an identically
    configured student on hard labels for the same number of steps.

    Every run goes through train_byte_lm, so each draws its batch_len
    windows over the whole training head, both ends included, and decays
    its own step size from lr to lr / 10 over its steps.

    k, batch_len, the two configs' vocabularies and the corpus ids are
    checked before the teacher trains: a batch_len window, or with
    batch_len None the whole training head, must fit both models'
    max_context."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if teacher_cfg.vocab_size != student_cfg.vocab_size:
        raise ValueError(f"teacher vocab_size {teacher_cfg.vocab_size} != student "
                         f"vocab_size {student_cfg.vocab_size}")
    data = _vocab_ids(teacher_cfg, corpus_tokens)
    split = int(len(data) * train_frac)
    train, held_out = data[:split], data[split:]
    if len(train) < 2 or len(held_out) < 2:
        raise ValueError(
            f"corpus of {len(data)} tokens gives a {len(train)}-token training head and a "
            f"{len(held_out)}-token held-out tail; each needs at least 2"
        )
    limit = min(teacher_cfg.max_context, student_cfg.max_context)
    span = len(train) - 1 if batch_len is None else batch_len  # a window's targets
    if not 1 <= span <= limit:
        raise ValueError(f"batch_len {batch_len}: a window of {span} targets must lie in "
                         f"[1, {limit}], the smaller max_context of teacher and student")

    teacher = train_byte_lm(
        teacher_cfg, train, steps=teacher_steps, lr=lr, seed=seed, batch_len=batch_len
    )

    ends: dict = {}  # targets of the head's first and last windows, by bytes

    def loss(window: np.ndarray, student_logits: np.ndarray):
        # targets depend only on the window's teacher inputs and the run's seed.
        # Clamped draws land on an end window in about 2 * batch_len /
        # (len(train) + batch_len) of the steps (full batch: in all), so those
        # two are kept; others are recomputed
        key, n = window.tobytes(), len(window)
        targets = ends.get(key)
        if targets is None:
            inputs = window[:-1]
            teacher_logits, _ = forward_full(teacher.params, teacher_cfg, inputs)
            targets = build_targets(teacher_logits, k=k, seed=window_seed(seed, inputs))
            if key in (train[:n].tobytes(), train[-n:].tobytes()):
                ends[key] = targets
        return cross_entropy(student_logits, targets.support, targets.probs)

    student = train_byte_lm(
        student_cfg, train, steps=student_steps, lr=lr, seed=seed + 1,
        batch_len=batch_len, loss=loss,
    )
    result = DistillRunResult(
        step_losses=student.losses,
        student_params=student.params,
        teacher_params=teacher.params,
        held_out_ce_distilled=mean_ce(student.params, student_cfg, held_out),
    )
    if compare_hard_labels:
        hard = train_byte_lm(
            student_cfg, train, steps=student_steps, lr=lr, seed=seed + 1,
            batch_len=batch_len,
        )
        result.held_out_ce_hard = mean_ce(hard.params, student_cfg, held_out)
    return result
