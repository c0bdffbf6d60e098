"""Benchmark of gemma-mini: four closed-loop workloads, one process each.

    python3 perfbench/run.py [--workload extract|generate|train|distill|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the library is imported from its `src/`.
With --trace 0 the run calls the library's own functions and prints the
end-to-end metrics; throughput and set-up time are corrected for the host's
speed with a reference kernel timed between requests (reference.py). With
--trace 1 it runs untraced for the first half of the time and traced for
the second, and prints the per-layer metrics and the tracing overhead. The last line of stdout is one JSON object; details,
the environment block and (traced) the span file go to perfbench/out/.
`--workload all` runs each workload in its own child process.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = "1"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NAMES = ("extract", "generate", "train", "distill")
SETUPS = 5  # set-up repetitions; setup_s reports imports plus their median

# Tail percentile per workload, fixed so that runs compare: a whole-five
# percentile with at least ten requests beyond it at the lowest request
# count of 28 s runs on a 2-core sandbox.
TAILS = {
    "extract": 90,  # 115 samples
    "generate": 70,  # 35 streams
    "train": 85,  # 68 steps
    "distill": 75,  # 41 calls
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "blas_threads_env": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def blas_threads(np):
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    import ctypes
    import glob

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*.so*"))
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(dll, fn):
                getattr(dll, fn).restype = ctypes.c_int
                return int(getattr(dll, fn)())
    return None


def percentile(values, q) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def measure(workload, seconds, probes=None):
    """Closed loop: the next request starts when the previous one returned;
    the reference kernel is timed after each request, outside its time.
    Returns (records, failed requests, seconds in requests, kernel ms)."""
    import reference

    records, errors, busy, refs = [], 0, 0.0, []
    deadline, i = time.perf_counter() + seconds, 0
    while i == 0 or time.perf_counter() < deadline:
        start = time.perf_counter()
        try:
            records += workload.request(i)
        except Exception:  # a failed request counts; the loop goes on
            traceback.print_exc(file=sys.stderr)
            errors += 1
        busy += time.perf_counter() - start
        refs.append(reference.time_ms())
        if probes is not None:
            probes.end_request()
        i += 1
    return records, errors, busy, refs


def check_all(workload, records) -> int:
    failed = 0
    for rec in records:
        try:
            ok = workload.check(rec)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        failed += not ok
    return failed


def host_slowdown(refs) -> float:
    """How many times slower than the reference host this host ran."""
    import reference

    return statistics.fmean(refs) / reference.REF_MS


def tok_s(records, busy, refs) -> float:
    """Tokens per second of request time, at the reference host's speed."""
    return sum(r.tokens for r in records) / busy * host_slowdown(refs)


def untraced_run(workload, seconds, setup_s, tail):
    """End-to-end metrics with the library's own functions."""
    records, errors, busy, refs = measure(workload, seconds)
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "tok_s": tok_s(records, busy, refs),
    }
    # Latency percentiles go to the run's file only, as measured: a median
    # over one run moves with the share of slow host time in it, and the
    # run-level speed correction does not apply to single requests.
    latencies = {
        f"{name}_ms_p{q}": percentile([getattr(r, f"{name}_ms") for r in records], q)
        for name in ("latency", "ttft", "tpot") for q in (50, tail)
    }
    info = {"requests": len(records), "tail_percentile": tail, "latencies": latencies,
            "host_slowdown": host_slowdown(refs),
            "tok_s_measured": values["tok_s"] / host_slowdown(refs)}
    return records, errors, values, info


def traced_run(workload, seconds, tail, spans_path):
    """Per-layer metrics: half the time untraced, then half traced."""
    import layers
    import tracer as tracing

    records, errors, busy, refs = measure(workload, seconds / 2)
    untraced = tok_s(records, busy, refs)
    probes = layers.Probes(getattr(workload, "teacher_cfg", None),
                           getattr(workload, "student_cfg", None))
    tracer = tracing.Tracer("gemma_mini", layers.LAYERS, probes.observers())
    tracer.install()
    sites = tracer.patched_sites()
    workload.tracer = tracer
    try:
        traced_records, traced_errors, traced_busy, traced_refs = measure(
            workload, seconds / 2, probes)
    finally:
        tracer.uninstall()
        workload.tracer = None
    restored = all(getattr(owner, attr) is fn for owner, attr, fn in sites)
    traced = tok_s(traced_records, traced_busy, traced_refs)
    values = layers.layer_metrics(
        tracer.spans, probes, sum(r.tokens for r in traced_records), tail)
    values.update({
        "trace.tok_s_untraced": untraced,
        "trace.tok_s_traced": traced,
        "trace.overhead_pct": 100.0 * (untraced - traced) / untraced,
    })
    tracing.write_spans(tracer.spans, spans_path)
    info = {"spans": str(spans_path.relative_to(ROOT)), "patched_sites": len(sites),
            "traced_requests": len(traced_records), "restored_by_identity": restored}
    return records + traced_records, errors + traced_errors, values, info


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401
        import gemma_mini
    except ImportError as exc:
        print(f"error: cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(gemma_mini.__file__).resolve().parents:
        print(f"error: gemma_mini was imported from {gemma_mini.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import layers
    import reference
    import tracer as tracing
    from workloads import E2E_UNITS, WORKLOADS

    import_s = time.perf_counter() - T0
    reference.time_ms()  # first-call costs stay out of the kernel's timings
    setups, refs = [], [reference.time_ms()]
    for _ in range(SETUPS):
        start = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed)
        setups.append(time.perf_counter() - start)
        refs.append(reference.time_ms())
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}"

    if args.trace:
        records, errors, values, info = traced_run(
            workload, args.seconds, TAILS[args.workload], Path(f"{stem}.spans.tsv.gz"))
        units = layers.metric_units()
    else:
        setup_s = (import_s + statistics.median(setups)) / host_slowdown(refs)
        records, errors, values, info = untraced_run(
            workload, args.seconds, setup_s, TAILS[args.workload])
        units = E2E_UNITS
    # the measured run must leave the library's own functions in place
    unwrapped = info.get("restored_by_identity", True) and not tracing.find_wrapped("gemma_mini")
    failed = errors + check_all(workload, records)
    attempted = len(records) + errors
    result = {
        "correct": failed == 0 and unwrapped,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    info.update(env=env, setup_s_parts={"imports": import_s, "repeats": setups,
                                        "reference_ms": refs},
                result=result, completed=attempted - failed, unwrapped_after_run=unwrapped)
    with open(f"{stem}-trace{args.trace}.json", "w") as f:
        json.dump(info, f, indent=2, sort_keys=True)
    for name, m in result["metrics"].items():
        print(f"{args.workload:9s} {name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload}: attempted {attempted} completed {attempted - failed} "
          f"failed {failed}; unwrapped library after run: {unwrapped}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so memory and set-up are its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # pinned before numpy is imported
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
