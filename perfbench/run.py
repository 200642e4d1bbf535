"""Benchmark of affinesl2: end-to-end metrics per workload, or per-layer metrics with --trace 1.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload eval-large --seed 1 --seconds 25 --trace 0

``--workload all`` runs every workload in turn.  Each pass of a workload runs
in a fresh interpreter (``worker.py``), so module caches start cold; passes
repeat until ``--seconds`` is used up.  Times are scaled by a speed probe
timed between ops (see ``worker.py`` and README.md); each metric line also
prints the raw figure.  With ``--trace 1`` untraced and traced passes
alternate; the traced ones give the per-layer metrics and the difference of
their job times is the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  ``correct`` is false when any op returned a wrong
result or a traced pass computed something other than the untraced one; an
op that raises counts as failed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("eval-large", "verify-small", "kernel-sweep", "characters")
MIN_PASSES = 2
# a run must end within 180 s; no pass starts after this
HARD_LIMIT_S = 170

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "AFFINESL2_WORKERS": "1",
    "PYTHONHASHSEED": "0",
    # every pass compiles from source and nothing is written next to the sources
    "PYTHONDONTWRITEBYTECODE": "1",
}


class BenchError(Exception):
    pass


def git_commit():
    """The commit of the checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(workload, seed, seconds, trace):
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
    }


def run_worker(workload, seed, trace, deadline):
    env = dict(os.environ, **PINNED_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), "1" if trace else "0"]
    t = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass did not finish within the run's time limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload} pass exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = time.perf_counter() - t
    return out


def tail(latencies):
    """Latency with ten ops beyond it, and its percentile; the slowest op when a pass has fewer than eleven."""
    xs = sorted(latencies)
    if len(xs) < 11:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(passes, key="scaled_s"):
    """End-to-end metrics of a list of untraced passes, and the percentile of the tail.

    Times are the probe-scaled ones (``key="s"`` gives the raw ones).  Set-up,
    job time and memory are medians over passes.  Every pass runs the same ops
    on the same inputs, and interference from the rest of the machine only
    ever slows an op down, so an op's latency is the fastest of its passes;
    the median and the tail are taken over those.
    """
    lat = [[r[key] for r in p["ops"]] for p in passes]
    per_op = [min(x) for x in zip(*lat)]
    tail_s, pct = tail(per_op)
    setup_key = "setup_scaled_s" if key == "scaled_s" else "setup_s"
    return {
        "setup_s": (statistics.median(p[setup_key] for p in passes), "s"),
        "job_s": (statistics.median(sum(x) for x in lat), "s"),
        "op_p50_ms": (1000 * statistics.median(per_op), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }, pct


def failures(passes):
    attempted = sum(len(p["ops"]) for p in passes)
    errors = Counter(r["error"].split(":", 1)[0] for p in passes for r in p["ops"] if r["error"])
    wrong = sum(1 for p in passes for r in p["ops"] if r["error"] is None and not r["ok"])
    return attempted, errors, wrong


def outcomes(p):
    return [(r["op"], r["error"], r["digest"]) for r in p["ops"]]


def measure(workload, seed, seconds, trace):
    """Run passes until the time is used; return (lines to print, result object)."""
    start = time.monotonic()
    deadline = start + seconds
    hard = start + HARD_LIMIT_S
    plain, traced = [], []
    while True:
        p = run_worker(workload, seed, False, hard)
        plain.append(p)
        est = p["wall_s"]
        if trace:
            traced.append(run_worker(workload, seed, True, hard))
            est += traced[-1]["wall_s"]
        done = len(plain) >= (1 if trace else MIN_PASSES)
        if done and time.monotonic() + est > deadline:
            break

    passes = plain + traced
    attempted, errors, wrong = failures(passes)
    failed = sum(errors.values()) + wrong
    same = all(outcomes(p) == outcomes(plain[0]) for p in passes)
    e2e, pct = end_to_end(plain)
    raw, _ = end_to_end(plain, "s")
    ops = len(plain[0]["ops"])
    lines = [
        f"# stamp {json.dumps(stamp(workload, seed, seconds, trace))}",
        f"{workload} passes {len(plain)} untraced, {len(traced)} traced, {ops} ops per pass",
    ]
    for name, (value, unit) in e2e.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{pct:.1f} of {ops} ops per pass" + (", the slowest op: fewer than 11 ops)" if ops < 11 else ")")
        lines.append(f"{workload} {name} {value:.6g} {unit}  raw {raw[name][0]:.6g}{note}")
    kinds = ", ".join(f"{k} x{v}" for k, v in sorted(errors.items())) or "none"
    lines.append(f"{workload} failed_frac {failed / attempted:.4f} ({failed} of {attempted} ops; raised: {kinds}; wrong results: {wrong})")
    if not same:
        lines.append(f"{workload} MISMATCH: passes disagree on results")

    if trace:
        layers = {}
        for name, (_, unit) in traced[0]["layers"].items():
            layers[name] = (statistics.median(t["layers"][name][0] for t in traced), unit)
        overhead = statistics.median(sum(r["scaled_s"] for r in t["ops"]) for t in traced) - e2e["job_s"][0]
        layers["trace.overhead_s"] = (overhead, "s")
        lines += layer_report(workload, layers, e2e["job_s"][0], traced[0])
        metrics = layers
    else:
        metrics = e2e
    result = {
        "correct": wrong == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return lines, result


def layer_report(workload, layers, job_s, first):
    """Human-readable per-layer lines: each metric, then each module's share of the traced job time."""
    lines = [f"{workload} layer {name} {value:.6g} {unit}" for name, (value, unit) in layers.items()]
    traced_job = sum(r["s"] for r in first["ops"])
    shares = {m: v / traced_job for m, v in first["module_self_s"].items()}
    shares["outside_spans"] = 1 - sum(shares.values())
    for module, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        lines.append(f"{workload} self_time_share {module} {share:.3f}")
    lines.append(
        f"{workload} trace overhead {layers['trace.overhead_s'][0]:.4f} s on an untraced job_s of {job_s:.4f} s"
        f"; spans written to {first['trace_file']}"
    )
    if first["missing_targets"]:
        lines.append(f"{workload} trace targets not found: {', '.join(first['missing_targets'])}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "affinesl2" / "__init__.py").is_file():
        print(f"perfbench: no affinesl2 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            lines, result = measure(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
