import time
import tracemalloc

import numpy as np
import pytest

from gemma_mini.model import ModelConfig
from gemma_mini.tokenizer import VOCAB_SIZE
from gemma_mini.train import train_byte_lm

# 200 bytes exactly; varied enough that every 50-byte window is unique.
OVERFIT_CORPUS = (
    b"the sliding window keeps the cache small while global layers watch the "
    b"whole context. rotary pairs spin with position; norm gains hold near one "
    b"as training goes on, and stray bytes settle into place!"
    b" "
)
assert len(OVERFIT_CORPUS) == 200

OVERFIT_STEPS = 500
OVERFIT_CHECKPOINTS = (0, 150, 500)


def overfit_config() -> ModelConfig:
    return ModelConfig(
        n_layers=2, d_model=64, hidden_dim=128, vocab_size=VOCAB_SIZE,
        max_context=512, num_query_heads=4, num_kv_heads=2, head_dim=16, window=64,
    )


@pytest.fixture(scope="session")
def overfit_run():
    """One shared training run: a 2-layer byte model memorizing 200 bytes.

    Training crops random 100-byte windows so the model learns the corpus
    from any offset (which is also what extraction prompts look like).
    Returns (config, TrainResult, corpus_bytes, wall_seconds); checkpoints
    capture parameters before steps 0/150 and after the last step.
    """
    cfg = overfit_config()
    data = list(OVERFIT_CORPUS)
    start = time.perf_counter()
    result = train_byte_lm(
        cfg, data, steps=OVERFIT_STEPS, lr=8e-3, seed=0, batch_len=100,
        checkpoint_steps=OVERFIT_CHECKPOINTS,
    )
    elapsed = time.perf_counter() - start
    return cfg, result, OVERFIT_CORPUS, elapsed


def rand_matrix(rng, rows, cols, scale=1.0):
    return rng.normal(0.0, scale, size=(rows, cols))


def heap_peak(run) -> int:
    """tracemalloc's peak in bytes, numpy's buffers included, over run()."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def with_line(text: str, line: str) -> str:
    """Config text with `line` in place of the line that sets the same key
    (appended where no line does): a config file sets each key once."""
    key = line.partition("=")[0].strip()
    kept = [raw for raw in text.splitlines() if raw.partition("=")[0].strip() != key]
    return "\n".join(kept + [line]) + "\n"
