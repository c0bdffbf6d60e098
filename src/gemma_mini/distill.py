"""Sampled-logit distillation: per token, keep a teacher-weighted sample of
vocabulary entries, zero the rest, renormalize, and train the student with
cross-entropy against that sparse target.

All sampling is seeded and pure; batches can run in parallel with
independent seeds.
"""

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .model import ModelConfig, forward_full
from .tensor import softmax_rows
from .train import cross_entropy, mean_ce, train_byte_lm

SUPPORT_K = 256


@dataclass(frozen=True)
class DistillTarget:
    """Sparse teacher distribution: probabilities over a support id set."""

    support: np.ndarray  # distinct vocab ids, (k,)
    probs: np.ndarray  # positive, sums to 1, aligned with support

    def __post_init__(self):
        if len(set(self.support.tolist())) != self.support.shape[0]:
            raise ValueError("support ids must be distinct")
        if self.support.shape != self.probs.shape:
            raise ValueError("support and probs must align")
        if np.any(self.probs <= 0):
            raise ValueError("probs must be > 0 on the support")
        if abs(float(self.probs.sum()) - 1.0) > 1e-12:
            raise ValueError("probs must sum to 1")

    def dense(self, vocab_size: int) -> np.ndarray:
        out = np.zeros(vocab_size)
        out[self.support] = self.probs
        return out


def sample_support(
    teacher_probs: np.ndarray, k: int = SUPPORT_K, seed: int = 0
) -> np.ndarray:
    """min(k, #nonzero) distinct ids, drawn sequentially without replacement
    with probability proportional to teacher mass."""
    teacher_probs = np.asarray(teacher_probs, dtype=np.float64)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    total = float(teacher_probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"teacher probabilities sum to {total}, expected 1")
    nonzero = int(np.count_nonzero(teacher_probs))
    if nonzero == 0:
        raise ValueError("teacher distribution is all zero")
    rng = np.random.default_rng(seed)
    ids = rng.choice(teacher_probs.shape[0], size=min(k, nonzero), replace=False,
                     p=teacher_probs / total)
    return np.sort(ids)


def renormalize(teacher_probs: np.ndarray, support: np.ndarray) -> DistillTarget:
    """Teacher probabilities restricted to the support and rescaled to sum 1."""
    teacher_probs = np.asarray(teacher_probs, dtype=np.float64)
    support = np.asarray(support, dtype=np.int64)
    if support.size == 0:
        raise ValueError("support must be non-empty")
    mass = teacher_probs[support]
    if np.any(mass <= 0):
        raise ValueError("support includes zero-probability ids")
    return DistillTarget(support=support, probs=mass / mass.sum())


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max()
    z = logits - m
    return z - np.log(np.exp(z).sum())


def distill_loss(student_logits: np.ndarray, target: DistillTarget) -> float:
    """-sum target(i) * log softmax(student)(i); softmax over the full vocab."""
    student_logits = np.asarray(student_logits, dtype=np.float64)
    logp = _log_softmax(student_logits)
    return float(-np.sum(target.probs * logp[target.support]))


def distill_loss_grad(student_logits: np.ndarray, target: DistillTarget):
    """Loss and its analytic gradient: softmax(student) - dense(target)."""
    loss = distill_loss(student_logits, target)
    grad = softmax_rows(student_logits[None, :])[0] - target.dense(student_logits.shape[0])
    return loss, grad


def distill_grad_check(
    student_logits: np.ndarray, target: DistillTarget, h: float = 1e-5
) -> float:
    """Max relative error of the analytic gradient vs central differences."""
    if not 1e-7 <= h <= 1e-4:
        raise ValueError(f"h must lie in [1e-7, 1e-4], got {h}")
    student_logits = np.asarray(student_logits, dtype=np.float64)
    _, analytic = distill_loss_grad(student_logits, target)
    worst = 0.0
    for j in range(student_logits.shape[0]):
        bumped = student_logits.copy()
        bumped[j] += h
        up = distill_loss(bumped, target)
        bumped[j] -= 2 * h
        down = distill_loss(bumped, target)
        numeric = (up - down) / (2 * h)
        denom = max(abs(analytic[j]), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic[j] - numeric) / denom)
    return worst


# ---------------------------------------------------------------------------
# Toy teacher -> student loop
# ---------------------------------------------------------------------------

def build_targets(
    teacher_logits: np.ndarray, k: int, seed: int
) -> list[DistillTarget]:
    """Per-position sparse targets from teacher logits (T, vocab)."""
    targets = []
    for t in range(teacher_logits.shape[0]):
        probs = softmax_rows(teacher_logits[t][None, :])[0]
        support = sample_support(probs, k=k, seed=seed + t)
        targets.append(renormalize(probs, support))
    return targets


def sequence_distill_grad(student_logits: np.ndarray, targets: Sequence[DistillTarget]):
    """Mean sampled-CE over positions and d(loss)/d(logits)."""
    T, vocab = student_logits.shape
    dense = np.zeros((T, vocab))
    loss = 0.0
    for t, target in enumerate(targets):
        loss += distill_loss(student_logits[t], target)
        dense[t] = target.dense(vocab)
    probs = softmax_rows(student_logits)
    return loss / T, (probs - dense) / T


@dataclass
class DistillRunResult:
    step_losses: list[float]
    student_params: dict
    teacher_params: dict
    held_out_ce_distilled: Optional[float] = None
    held_out_ce_hard: Optional[float] = None
    extra: dict = field(default_factory=dict)


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
    its own step size from lr to lr / 10 over its steps."""
    data = np.asarray(corpus_tokens, dtype=np.int64)
    split = int(len(data) * train_frac)
    train, held_out = data[:split], data[split:]
    if len(train) < 2 or len(held_out) < 2:
        raise ValueError(
            f"corpus of {len(data)} tokens gives a {len(train)}-token training head and a "
            f"{len(held_out)}-token held-out tail; each needs at least 2"
        )

    teacher = train_byte_lm(
        teacher_cfg, train, steps=teacher_steps, lr=lr, seed=seed, batch_len=batch_len
    )

    ends: dict = {}  # targets of the head's first and last windows, by bytes

    def grad_fn_for(window: np.ndarray):
        # targets depend only on the window. Clamped draws land on an end
        # window in about 2 * batch_len / (len(train) + batch_len) of the steps
        # (full batch: in all), so those two are kept; others are recomputed
        key, n = window.tobytes(), len(window)
        targets = ends.get(key)
        if targets is None:
            teacher_logits, _ = forward_full(teacher.params, teacher_cfg, window[:-1])
            targets = build_targets(teacher_logits, k=k, seed=seed)
            if key in (train[:n].tobytes(), train[-n:].tobytes()):
                ends[key] = targets
        return lambda student_logits: sequence_distill_grad(student_logits, targets)

    student = train_byte_lm(
        student_cfg, train, steps=student_steps, lr=lr, seed=seed + 1,
        batch_len=batch_len, grad_fn_for=grad_fn_for,
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
        result.extra["hard_params"] = hard.params
    return result
