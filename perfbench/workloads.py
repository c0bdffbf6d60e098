"""The benchmark's four workloads, each a closed loop with one caller.

A workload is built from a seed (config, random-init weights, inputs and a
warm-up), then `request(i)` runs the next unit a caller waits on and
returns one `Record` per request it served. Outputs are kept on the record
and checked by `check` after the timed region.

Request, output tokens and processed tokens per workload:

- extract:  one audit sample; 50 continuation tokens returned together;
            100 tokens (prefix plus continuation).
- generate: one prompt stream; 32 tokens streamed one by one; prompt plus
            generated tokens.
- train:    one `train_byte_lm` call of one step; 512 trained tokens.
- distill:  one `run_toy_distillation` call; teacher plus student trained
            tokens, which are also its output tokens.

Time per output token is (latency - time to first token) / (outputs - 1)
for a streamed request; where a request returns its outputs together, time
to first token is the request latency and time per output token is
latency / output tokens.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from gemma_mini import audit, cli, distill, model, presets, train
from layers import SAMPLE_SPAN

LETTERS = b"etaoinshrdlcumwfgypbvkjxqz"

# every end-to-end metric of an untraced run, with its unit
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "tok_s": "tok/s",
}


@dataclass
class Record:
    tokens: int  # tokens processed, the unit of tok_s
    latency_ms: float  # the whole request
    ttft_ms: float
    tpot_ms: float  # time per output token after the first
    output: dict = field(default_factory=dict)  # what `check` reads


def word_corpus(rng: np.random.Generator, n_bytes: int) -> list[int]:
    """Word-like lowercase text: a seeded lexicon drawn with Zipf weights."""
    letter_p = 1.0 / np.arange(1, len(LETTERS) + 1)
    letter_p /= letter_p.sum()
    lexicon = [
        bytes(rng.choice(np.frombuffer(LETTERS, dtype=np.uint8), size=n, p=letter_p))
        for n in rng.integers(2, 9, size=300)
    ]
    word_p = 1.0 / np.arange(1, len(lexicon) + 1)
    word_p /= word_p.sum()
    out = bytearray()
    while len(out) < n_bytes:
        for w in rng.choice(len(lexicon), size=12, p=word_p):
            out += lexicon[w] + b" "
        out[-1:] = b". "
    return list(out[:n_bytes])


def toy_config() -> model.ModelConfig:
    return model.ModelConfig.from_dict(presets.preset_values("toy"))


def greedy_agrees(params, cfg, prompt, continuation) -> bool:
    """Each continuation token is the argmax of `forward_full` run
    teacher-forced over prompt plus continuation. A token whose logit is
    within 1e-9 of the maximum counts as an argmax: cached and uncached
    decode sum in different orders."""
    seq = list(prompt) + list(continuation[:-1])
    logits, _ = model.forward_full(params, cfg, seq)
    rows = logits[len(prompt) - 1:]
    chosen = rows[np.arange(len(continuation)), continuation]
    return bool(np.all(chosen >= rows.max(axis=1) - 1e-9))


class Extract:
    """`gemma-mini audit` on `toy`: run_audit over 50-token prefixes."""

    name = "extract"
    chunk = 1  # samples per run_audit call
    tokens_per_sample = audit.PREFIX_LEN + audit.SUFFIX_LEN

    def __init__(self, seed: int):
        self.tracer = None  # set by a traced run
        rng = np.random.default_rng(seed)
        self.cfg = toy_config()
        self.params = model.init_params(self.cfg, seed=seed)
        docs = [(f"doc{i % 4}", word_corpus(rng, 1600)) for i in range(16)]
        self.samples = audit.make_samples(docs, stride=100, seed=seed, max_samples=200)
        self.audited = 0
        self._audit(self.samples[:1])  # warm-up

    def _audit(self, samples) -> list[Record]:
        inner = audit.model_generator(self.params, self.cfg)
        records = []

        def generate_fn(prefix, n):
            start = time.perf_counter()
            if self.tracer is not None:
                self.tracer.request = f"s{self.audited}"
                with self.tracer.span(SAMPLE_SPAN):
                    out = inner(prefix, n)
            else:
                out = inner(prefix, n)
            ms = (time.perf_counter() - start) * 1e3
            self.audited += 1
            records.append(Record(self.tokens_per_sample, ms, ms, ms / n,
                                  {"prefix": list(prefix), "continuation": list(out)}))
            return out

        report = audit.run_audit(generate_fn, samples)
        if report.n_samples != len(samples) or len(records) != len(samples):
            raise RuntimeError(f"audited {report.n_samples} of {len(samples)} samples")
        return records

    def request(self, i: int) -> list[Record]:
        start = (i * self.chunk) % len(self.samples)
        return self._audit(self.samples[start:start + self.chunk])

    def check(self, rec: Record) -> bool:
        out = rec.output
        return len(out["continuation"]) == audit.SUFFIX_LEN and greedy_agrees(
            self.params, self.cfg, out["prefix"], out["continuation"])


class Generate:
    """Single-stream greedy decoding on `toy` through the streaming calls.

    Prompt lengths come in antithetic pairs (L, 512 - L) with L stratified
    over [64, 256], so every pair holds 512 prompt tokens and the lengths
    spread over 64..448 the same way for every seed. A request is one
    prompt stream."""

    name = "generate"
    new_tokens = 32
    pairs_per_block = 8

    def __init__(self, seed: int):
        self.tracer = None  # set by a traced run
        self.rng = np.random.default_rng(seed)
        self.cfg = toy_config()
        self.params = model.init_params(self.cfg, seed=seed)
        self._lengths: list = []
        self._stream(self.rng.integers(0, 256, size=16).tolist(), "warm-up")

    def _next_length(self) -> int:
        if not self._lengths:
            n = self.pairs_per_block
            u = (self.rng.permutation(n) + self.rng.random(n)) / n
            for short in (int(64 + 192 * x) for x in u):
                pair = [short, 512 - short]
                self._lengths += pair if self.rng.random() < 0.5 else pair[::-1]
        return self._lengths.pop()

    def _stream(self, prompt: list, request) -> Record:
        if self.tracer is not None:
            self.tracer.request = request
        start = time.perf_counter()
        cache = model.make_cache(self.cfg)
        logits = model.forward(self.params, self.cfg, prompt, cache)
        out = [int(np.argmax(logits[-1]))]
        ttft = time.perf_counter() - start
        for _ in range(self.new_tokens - 1):
            logits = model.forward(self.params, self.cfg, [out[-1]], cache)
            out.append(int(np.argmax(logits[-1])))
        latency = time.perf_counter() - start
        tpot = (latency - ttft) / (self.new_tokens - 1)
        return Record(len(prompt) + len(out), latency * 1e3, ttft * 1e3, tpot * 1e3,
                      {"prompt": prompt, "continuation": out})

    def request(self, i: int) -> list[Record]:
        return [self._stream(self.rng.integers(0, 256, size=self._next_length()).tolist(),
                             f"r{i}")]

    def check(self, rec: Record) -> bool:
        out = rec.output
        return len(out["continuation"]) == self.new_tokens and greedy_agrees(
            self.params, self.cfg, out["prompt"], out["continuation"])


class Train:
    """`train_byte_lm` on `toy`, one step per call on a random 512-token
    window of a seeded word-like byte stream; each call resumes from the
    previous call's weights."""

    name = "train"
    batch_len = 512
    warmup_steps = 8  # steps after this one must have a lower loss than the first

    def __init__(self, seed: int):
        self.tracer = None  # set by a traced run
        self.seed = seed
        self.cfg = toy_config()
        self.data = word_corpus(np.random.default_rng(seed), 1 << 16)
        self.params = model.init_params(self.cfg, seed=seed)
        train.train_byte_lm(  # warm-up; its weights are discarded
            self.cfg, self.data, steps=1, seed=seed, batch_len=self.batch_len, init=self.params
        )
        self.steps = 0
        self.first_loss = None

    def request(self, i: int) -> list[Record]:
        step, self.steps = self.steps, self.steps + 1
        if self.tracer is not None:
            self.tracer.request = f"step{step}"
        start = time.perf_counter()
        result = train.train_byte_lm(
            self.cfg, self.data, steps=1, seed=self.seed * 100_003 + step,
            batch_len=self.batch_len, init=self.params,
        )
        ms = (time.perf_counter() - start) * 1e3
        self.params = result.params
        loss = result.losses[0]
        if self.first_loss is None:
            self.first_loss = loss
        return [Record(self.batch_len, ms, ms, ms / self.batch_len,
                       {"step": step, "loss": loss, "first": self.first_loss})]

    def check(self, rec: Record) -> bool:
        out = rec.output
        falling = out["step"] < self.warmup_steps or out["loss"] < out["first"]
        return math.isfinite(out["loss"]) and falling


class Distill:
    """`run_toy_distillation` with the CLI's teacher and student shapes on a
    seeded word-like corpus of 2000 bytes, short enough that the held-out
    `mean_ce` fits in max_context."""

    name = "distill"
    teacher_steps = 6  # the CLI's 3:2 teacher:student ratio
    student_steps = 4
    batch_len = 128
    corpus_bytes = 2000

    def __init__(self, seed: int):
        self.tracer = None  # set by a traced run
        self.seed = seed
        self.teacher_cfg = cli._toy_teacher_config()
        self.student_cfg = cli._toy_student_config()
        self.corpus = word_corpus(np.random.default_rng(seed), self.corpus_bytes)
        distill.run_toy_distillation(
            self.corpus, self.teacher_cfg, self.student_cfg, teacher_steps=1,
            student_steps=1, seed=seed, batch_len=self.batch_len,
        )

    def request(self, i: int) -> list[Record]:
        if self.tracer is not None:
            self.tracer.request = f"run{i}"
        start = time.perf_counter()
        result = distill.run_toy_distillation(
            self.corpus, self.teacher_cfg, self.student_cfg,
            teacher_steps=self.teacher_steps, student_steps=self.student_steps,
            k=distill.SUPPORT_K, seed=self.seed * 100_003 + i, batch_len=self.batch_len,
        )
        ms = (time.perf_counter() - start) * 1e3
        tokens = (self.teacher_steps + self.student_steps) * self.batch_len
        return [Record(tokens, ms, ms, ms / tokens,
                       {"losses": result.step_losses, "ce": result.held_out_ce_distilled})]

    def check(self, rec: Record) -> bool:
        losses = rec.output["losses"]
        return (
            len(losses) == self.student_steps
            and all(math.isfinite(x) for x in losses + [rec.output["ce"]])
            and losses[-1] < losses[0]
        )


WORKLOADS = {w.name: w for w in (Extract, Generate, Train, Distill)}
