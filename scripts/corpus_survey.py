"""Survey the standard corpus: one row of invariants per member.

Usage:
    python3 scripts/corpus_survey.py
    python3 scripts/corpus_survey.py --corpus my_families.txt --csv out.csv
"""

import argparse
import csv
import sys
import time

from gcurv import (
    classify,
    effective_diameter,
    is_reflective,
    load_corpus,
    min_edge_curvature,
    smallest_positive_laplacian_eigenvalue,
    standard_corpus,
)
from gcurv.errors import GcurvError
from gcurv.graphs import read_text


def load_members(corpus_path):
    if corpus_path is None:
        return standard_corpus()
    return load_corpus(read_text(corpus_path).split("\n"))


def survey_row(name: str, g) -> dict:
    mec = min_edge_curvature(g)
    diam_eff = effective_diameter(g)
    sharp = mec.value > 0 and diam_eff * mec.value == g.max_degree()
    return {
        "name": name,
        "n": g.n,
        "m": g.m,
        "kappa_min": str(mec.value),
        "constant": mec.is_constant,
        "diam_eff": str(diam_eff),
        "sharp": sharp,
        "reflective": is_reflective(g).reflective,
        "lambda": round(smallest_positive_laplacian_eigenvalue(g), 6),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--corpus", help="file of family expressions, one per line")
    ap.add_argument("--csv", help="also write rows to this CSV file")
    ap.add_argument("--reports", action="store_true",
                    help="print the full classification report per member")
    args = ap.parse_args(argv)
    try:
        members = load_members(args.corpus)
    except (GcurvError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2

    rows = []
    start = time.monotonic()
    for mem in members:
        name, g = mem.name, mem.graph
        rows.append(survey_row(name, g))
        if args.reports:
            rep = classify(g)
            verdicts = ", ".join(
                f"{k.split('_')[0]}={'ok' if v.passed else 'FAIL'}"
                for k, v in rep.theorem_verdicts.items()
            )
            print(f"# {name}: factors "
                  f"{[fam for _, fam in rep.prime_factors]}, {verdicts}")

    header = list(rows[0])
    widths = {
        k: max(len(k), *(len(str(r[k])) for r in rows)) for k in header
    }
    print("  ".join(k.ljust(widths[k]) for k in header))
    for r in rows:
        print("  ".join(str(r[k]).ljust(widths[k]) for k in header))
    print(f"# {len(rows)} members, {time.monotonic() - start:.1f}s")

    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=header)
            writer.writeheader()
            writer.writerows(rows)
        print(f"# wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
