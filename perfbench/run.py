"""Run one anisoeit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload aniso-ellipse --seed 7 --seconds 30 --trace 0

With --trace 0 the workload is timed with no wrapper in place and the run
prints the end-to-end metrics; with --trace 1 it makes one untraced and one
traced operation and prints the per-layer metrics. Every run checks its
outputs. The last line of standard output is one JSON object; the lines
before it name every metric with its unit, the environment and each check.
A run with a failed check exits with code 1. `--workload all` runs every
workload in turn, each in its own process.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import summarize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# printed by name with --trace 0 (rows that do not apply print n/a); the
# end-to-end metrics of BENCHMARK.json are the seed-comparable subset
TIMINGS = {"setup_s": "s", "experiment_s": "s", "recon_s": "s", "gn_iter_ms": "ms", "fwd_ms": "ms"}
QUALITY = {"misfit_ratio": "ratio", "loc_err_max": "length", "artifact_energy": "ratio"}


def environment() -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        cpu = next(line.split(":", 1)[1].strip()
                   for line in Path("/proc/cpuinfo").read_text().splitlines()
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"git_commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, **{v: os.environ[v] for v in BLAS_VARS},
            "cpu": cpu, "nproc": len(os.sched_getaffinity(0))}


def run_all(args, workload_names) -> int:
    worst = 0
    for name in workload_names:
        code = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)]).returncode
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help=f"one of {', '.join(names)}, aniso-truncated (by name only) or all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "anisoeit" / "__init__.py").is_file():
        print(f"error: no anisoeit source under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, names)
    sys.path.insert(0, str(SRC))
    import layers
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")

    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    env = environment()
    workload = workloads.WORKLOADS[args.workload]
    res = workload.run(args.seed, args.seconds, out, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = all(ok for _, ok, _ in res.checks)

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    summaries = {k: summarize(v) for k, v in res.samples.items()}
    if args.trace:
        metrics = {k: {"value": res.layers[k], "unit": u} for k, u in layers.PER_LAYER_UNITS.items()}
        for k, m in metrics.items():
            print(f"{k:28s} {m['value']:.6g} {m['unit']}")
        largest = max(res.shares, key=res.shares.get)
        print("shares of the root span: " + " ".join(f"{g}={v:.3f}" for g, v in res.shares.items()))
        expected = workload.expected_largest
        print(f"largest share: {largest} (expected {expected}: "
              f"{'as expected' if largest == expected else 'NOT as expected'})")
    else:
        for k, unit in TIMINGS.items():
            s = summaries.get(k)
            print(f"{k:16s} n/a" if s is None else
                  f"{k:16s} median {s['median']:.6g} {unit}  tail {s['tail']:.6g} {unit} "
                  f"({s['tail_rule']}, n={s['n']})")
        print(f"{'fail_frac':16s} {res.failed / res.attempted:.6g} ratio "
              f"({res.failed} of {res.attempted} operations)")
        for k, unit in QUALITY.items():
            print(f"{k:16s} " + (f"{res.values[k]:.6g} {unit} (depends on the seed)"
                                 if k in res.values else "n/a"))
        print(f"{'peak_rss_mb':16s} {peak_rss_mb:.6g} MB")
        metrics = workloads.end_to_end(res, peak_rss_mb)
        print(f"{'op_ms':16s} median {metrics['op_ms']['value']:.6g} ms "
              f"({'gn_iter_ms' if 'gn_iter_ms' in summaries else 'fwd_ms'})")
    for (name, ok), n in Counter((name, ok) for name, ok, _ in res.checks).items():
        print(f"check {'PASS' if ok else 'FAIL'} x{n}: {name}")
    for name, ok, detail in res.checks:
        if not ok:
            print(f"  failed: {name} {detail}")

    result = {"correct": correct, "attempted": res.attempted, "failed": res.failed,
              "metrics": metrics}
    record = {"args": vars(args), "env": env, "result": result, "summaries": summaries,
              "values": res.values, "shares": res.shares, "peak_rss_mb": peak_rss_mb,
              "checks": res.checks}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
