"""Seeded runs reproduce across BLAS thread counts.

Each run happens in a fresh interpreter whose OPENBLAS_NUM_THREADS is set
before numpy loads, so the BLAS really runs with that many threads. The two
runs must agree bit for bit: a seeded training run's parameters, a seeded
temperature sample and an extraction audit's report.
"""

import os
import subprocess
import sys

import numpy as np

RUN = """
import sys
import numpy as np
from gemma_mini.audit import make_samples, model_generator, run_audit
from gemma_mini.model import ModelConfig, generate
from gemma_mini.presets import preset_values
from gemma_mini.train import train_byte_lm

cfg = ModelConfig.from_dict(preset_values("toy"))
data = np.random.default_rng(0).integers(0, 256, size=2000)
params = train_byte_lm(cfg, data, steps=3, seed=0, batch_len=512).params
sample = generate(params, cfg, list(data[:40]), 30, sampler="temperature", seed=3)
corpus = [("a", list(data[:300])), ("b", list(data[300:600]))]
report = run_audit(model_generator(params, cfg), make_samples(corpus, stride=100))
np.savez(sys.argv[1], sample=np.array(sample), report=np.array(report.to_json()),
         **{"param." + name: arr for name, arr in params.items()})
"""


def run_with_threads(threads: int, out: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    subprocess.run([sys.executable, "-c", RUN, out], env=env, check=True, timeout=300)
    with np.load(out) as archive:
        return dict(archive)


def test_seeded_runs_are_bit_equal_at_one_and_two_threads(tmp_path):
    one = run_with_threads(1, str(tmp_path / "one.npz"))
    two = run_with_threads(2, str(tmp_path / "two.npz"))
    assert set(one) == set(two)
    differ = [name for name in one if not np.array_equal(one[name], two[name])]
    assert not differ, f"{len(differ)} of {len(one)} arrays differ: {differ[:5]}"
