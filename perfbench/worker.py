"""One pass of one workload in a fresh interpreter; prints one JSON record.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE

The pass imports ``affinesl2`` from the checkout's ``src``, builds the
workload's generators (timed together as set-up), runs every op timed one
by one, and checks each result untimed.  With TRACE = 1 the layer spans are
recorded during the ops only, and written to ``perfbench/out``.

Between ops, outside the timed regions, the pass times a fixed piece of
pure-Python work (the speed probe) at least every ``PROBE_EVERY_S``.  Each
op's latency is reported both raw and scaled by ``PROBE_NOMINAL_S`` over the
probe time around it; see ``run.py``.
"""

import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

PROBE_LOOP = 20000
# the probe's duration at the speed scaled times are quoted at: its fastest
# on a 2-core Intel Xeon VM with Python 3.11, so there scaled and raw times
# agree when nothing else slows the machine down
PROBE_NOMINAL_S = 1.15e-3
PROBE_EVERY_S = 0.05


def probe_s():
    """Fastest of three timings of a fixed integer loop that touches no library code."""
    best = None
    for _ in range(3):
        t = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i % 97
        dt = time.perf_counter() - t
        best = dt if best is None else min(best, dt)
    return best


def run_pass(name, seed, trace):
    before = probe_s()
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import affinesl2

    workload = WORKLOADS[name]
    workload.setup()
    setup_s = time.perf_counter() - t0
    probes = [probe_s()]
    setup_scale = PROBE_NOMINAL_S / ((before + probes[0]) / 2)

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(affinesl2)
    ops = workload.ops(seed)

    records = []
    last_probe = time.perf_counter()
    for op in ops:
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(probe_s())
            last_probe = time.perf_counter()
        if tracer:
            tracer.active = True
        t = time.perf_counter()
        try:
            result = op.call()
            error = None
        except Exception as exc:  # a failing op is a measured outcome, not a benchmark error
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        if tracer:
            tracer.active = False
        if error is None:
            ok, digest = op.check(result)
            # drop the result so it does not add to the next op's memory
            result = None
        else:
            ok, digest = False, ""
        records.append({"op": op.name, "s": dt, "probe": len(probes) - 1, "ok": ok, "error": error, "digest": digest})
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probes.append(probe_s())
    for r in records:
        k = r.pop("probe")
        r["scaled_s"] = r["s"] * PROBE_NOMINAL_S / ((probes[k] + probes[k + 1]) / 2)

    out = {"setup_s": setup_s, "setup_scaled_s": setup_s * setup_scale, "ops": records, "peak_rss_mb": peak_kb / 1024}
    if tracer:
        tracer.restore()
        scale = PROBE_NOMINAL_S / sorted(probes)[len(probes) // 2]
        out["layers"] = {
            k: (v * scale if unit == "s" else v, unit) for k, (v, unit) in tracer.metrics().items()
        }
        out["module_self_s"] = tracer.module_self_s()
        out["missing_targets"] = tracer.missing
        path = HERE / "out" / f"trace-{name}-seed{seed}.jsonl.gz"
        tracer.write(path, {"workload": name, "seed": seed, "names": tracer.names})
        out["trace_file"] = str(path.relative_to(ROOT))
    return out


if __name__ == "__main__":
    name, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    print(json.dumps(run_pass(name, seed, trace)))
