"""Random search for graphs where the diameter bound is tight.

Samples connected graphs uniformly-ish (random spanning tree plus random
extra edges), keeps those whose minimum edge curvature is positive and
whose effective diameter meets the degree bound exactly, and classifies
every hit.  The interesting outcome is negative space: hits should always
factor into recognized families, so an "unrecognized" factor in a hit
would be a counterexample worth staring at.

Usage:
    python3 scripts/sharpness_search.py --samples 300 --max-n 9 --seed 7
"""

import argparse
import random
import sys
import time

from gcurv import build_graph, classify, effective_diameter, min_edge_curvature
from gcurv.graphs import MAX_VERTICES


def random_connected_graph(rng: random.Random, n: int):
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    pool = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in edges
    ]
    extra = rng.randint(0, len(pool))
    edges.update(rng.sample(pool, extra))
    return build_graph(n, sorted(edges))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--min-n", type=int, default=4)
    ap.add_argument("--max-n", type=int, default=9)
    ap.add_argument("--seed", type=int, default=20250821)
    args = ap.parse_args(argv)
    # refused before the O(n^2) pair pool of any sample is built
    if not 2 <= args.min_n <= args.max_n <= MAX_VERTICES:
        ap.error(f"need 2 <= --min-n <= --max-n <= {MAX_VERTICES}")

    rng = random.Random(args.seed)
    start = time.monotonic()
    hits = 0
    unrecognized = 0
    seen_positive = 0
    for i in range(args.samples):
        g = random_connected_graph(rng, rng.randint(args.min_n, args.max_n))
        mec = min_edge_curvature(g)
        if mec.value <= 0:
            continue
        seen_positive += 1
        if effective_diameter(g) * mec.value != g.max_degree():
            continue
        hits += 1
        rep = classify(g)
        families = [fam for _, fam in rep.prime_factors]
        flags = []
        if "unrecognized" in families:
            unrecognized += 1
            flags.append("UNRECOGNIZED FACTOR")
        bad = [k for k, v in rep.theorem_verdicts.items() if not v.passed]
        if bad:
            flags.append(f"verdict failures: {bad}")
        print(
            f"hit #{hits} (sample {i}): n={g.n} m={g.m} "
            f"kappa={mec.value} diam_eff={effective_diameter(g)} "
            f"factors={families} {' '.join(flags)}"
        )

    elapsed = time.monotonic() - start
    print(
        f"# {args.samples} samples, {seen_positive} positively curved, "
        f"{hits} sharp, {unrecognized} with unrecognized factors, "
        f"{elapsed:.1f}s"
    )
    return 1 if unrecognized else 0


if __name__ == "__main__":
    sys.exit(main())
