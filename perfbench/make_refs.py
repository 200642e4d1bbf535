"""Regenerate ``refs.json``: the eval-large input pool and the character record digests.

Usage: python3 perfbench/make_refs.py

Every pool element's exact image is checked against the word oracle on an
independent lift before its digest is stored, and its stratum against
``wzwrep.dispatch_path``.  Run this only when the workloads' sizes change;
the stored digests are the reference the benchmark checks results against.
"""

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from affinesl2 import ResidueMatrix, decompose, evaluate_word, lift, rho_closed  # noqa: E402
from affinesl2.wzwrep import dispatch_path  # noqa: E402

from workloads import REFS, WORKLOADS, conductor, exact_digest, natural_quotas, rep_digest, stratified_sample  # noqa: E402

POOL_FACTOR = 4


def eval_pool():
    wl = WORKLOADS["eval-large"]
    rng = random.Random("eval-large/pool")
    pool = {}
    for n in wl.levels:
        N = conductor(n)
        quotas = natural_quotas(n, wl.per_level[n], wl.every_stratum[n])
        quota = {s: max(4, POOL_FACTOR * q) for s, q in quotas.items()}
        pool[str(n)] = {s: [] for s in quota}
        for s, m in stratified_sample(n, quota, rng):
            r = ResidueMatrix(N, *m)
            assert dispatch_path(r, n) == s, (r, s)
            mat = rho_closed(r, n)
            assert mat == evaluate_word(decompose(lift(r, 1)), n), f"closed form disagrees with the oracle at {r}"
            pool[str(n)][s].append([*m, rep_digest(mat, n)])
            print(f"n={n} {s} {r} ok", flush=True)
    return pool


def character_digests():
    wl = WORKLOADS["characters"]
    out = {}
    for n in wl.levels:
        for lam in range(1, n):
            try:
                lines = wl.records(lam, n, wl.tau(0))
            except AssertionError:
                continue
            out[f"{n}/{lam}"] = exact_digest(lines)
    return out


if __name__ == "__main__":
    refs = {"eval-large": eval_pool(), "characters": character_digests()}
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
