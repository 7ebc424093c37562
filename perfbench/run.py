"""irisfuse benchmark: one workload per invocation, in one process.

    python3 perfbench/run.py --workload evaluate|gallery|train-ga \
        [--seed 2026] [--seconds 20] [--trace 0|1] [--full] [--record FILE]

Run from anywhere inside a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (set-up, job time, operation latency);
with ``--trace 1`` the run makes one untraced and one traced job and the
metrics are the per-layer ones from the spans, plus the tracing overhead.
The lines before it print every metric by name with its unit, including the
per-workload quality numbers (EERs, FAR/FRR, GA recall, failure rate).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

# one BLAS/OpenMP thread, fixed before numpy is imported: the runs on a
# shared 2-core machine are steadiest single-threaded
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(THREADS)

ROOT = Path(__file__).resolve().parents[1]
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("evaluate", "gallery", "train-ga"))
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measuring time; jobs repeat while another one fits")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--full", action="store_true",
                   help="acceptance-scale inputs instead of the bench scale")
    p.add_argument("--record", default=None,
                   help="append the complete run record to this JSON list file")
    return p.parse_args(argv)


def import_program() -> float:
    """Import numpy, scipy and every irisfuse module; returns the seconds taken."""
    if not (ROOT / "src" / "irisfuse").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
        sys.exit(f"error: no irisfuse sources under {ROOT}; run inside a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    t = time.perf_counter()
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import irisfuse.cli  # noqa: F401  (imports every other irisfuse module)
    return time.perf_counter() - t


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it (the
    largest value when there are ten or fewer)."""
    s = sorted(values)
    return s[len(s) - 11] if len(s) > 10 else s[-1]


def source_digest() -> str:
    """Digest of the program and of this benchmark, which sets the inputs."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    for path in files + [ROOT / "tests" / "oracles.py"]:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git (a benchmark
    checkout need not be a repository)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(args, src: str) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "sources_sha256": src[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "scale": "full" if args.full else "bench",
    }


def check_determinism(key: str, output: bytes) -> str | None:
    """Compare with the digest an earlier run of the same program, workload,
    scale and seed left in the checkout; record it if it is the first."""
    digest = hashlib.sha256(output).hexdigest()
    path = STATE / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    if key in known and known[key] != digest:
        return "output differs from an earlier run with the same seed and program"
    known[key] = digest
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()

    from layers import per_layer
    from spans import Tracer
    from workloads import WORKLOADS

    src = source_digest()
    env = environment(args, src)
    workdir = STATE / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.full, workdir)

    caches = [f for name, m in sys.modules.items() if name.startswith("irisfuse.")
              for f in vars(m).values() if hasattr(f, "cache_clear")]
    setups, parts = [], []
    for _ in range(SETUP_REPEATS):
        for f in caches:
            f.cache_clear()   # each set-up pays the lazy work again
        t = time.perf_counter()
        parts.append(workload.setup())
        setups.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setups)

    results, walls = [], []
    t_start = time.perf_counter()
    while True:
        t = time.perf_counter()
        results.append(workload.job())
        walls.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - t_start
        if args.trace or elapsed + elapsed / len(results) > args.seconds:
            break
    traced = tracer = None
    if args.trace:
        with Tracer() as tracer:
            workload.mark = lambda label: setattr(tracer, "op", label)
            t = time.perf_counter()
            traced = workload.job()
            traced_wall = time.perf_counter() - t
        del workload.mark

    everything = results + ([traced] if traced else [])
    problems = [p for r in everything for p in r.problems]
    if any(r.output != results[0].output for r in results[1:]):
        problems.append("jobs with the same seed gave different outputs")
    if traced and traced.output != results[0].output:
        problems.append("the traced run's outputs differ from the untraced run's")
    key = f"{src}/{args.workload}/{env['scale']}/{args.seed}"
    problem = check_determinism(key, results[0].output)
    if problem:
        problems.append(problem)

    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    latencies = [x for r in results for x in r.latencies]
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "job_s": (statistics.median(r.seconds for r in results), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (tail(latencies) * 1e3, "ms"),
    }
    named = {"setup_s": end_to_end["setup_s"]}
    for name in results[0].named:
        values = [r.named[name][0] for r in results]
        named[name] = (statistics.median(values), results[0].named[name][1])
    if args.workload == "gallery":
        named["verify_p50_ms"] = end_to_end["op_p50_ms"]
        named["verify_p90_ms"] = end_to_end["op_p90_ms"]
    named["fail_rate"] = (failed / attempted, "ratio")

    print(f"workload {args.workload}  seed {args.seed}  scale {env['scale']}  "
          f"jobs {len(results)}  trace {args.trace}")
    print("env " + json.dumps(env))
    print(f"latency samples {len(latencies)}; op_p90_ms is the highest percentile "
          f"with at least 10 samples beyond it")
    for name, (value, unit) in named.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    for p in problems:
        print(f"CHECK FAILED: {p}")

    layers = {}
    if tracer is not None:
        overhead = (traced_wall - walls[0]) / walls[0] * 100.0
        build = statistics.median(p.get("build_corpus_s", 0.0) for p in parts)
        layers = per_layer(tracer.spans, traced.counts, build, overhead)
        trace_path = STATE / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"traced job {traced_wall:.3f} s against untraced {walls[0]:.3f} s; "
              f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
        for name, (value, unit) in layers.items():
            print(f"  {name:<34} {value:>14.6g} {unit}")

    if args.record:
        record = {"env": env, "correct": not problems, "problems": problems,
                  "attempted": attempted, "failed": failed,
                  "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
                  "named": {k: v for k, (v, _) in named.items()},
                  "per_layer": {k: v for k, (v, _) in layers.items()}}
        path = Path(args.record)
        history = json.loads(path.read_text()) if path.is_file() else []
        path.write_text(json.dumps(history + [record], indent=1) + "\n")

    metrics = layers if args.trace else end_to_end
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
