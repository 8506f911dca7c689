"""Command line front end.

Exit codes: 0 success, 1 property failed (the queried property does not
hold), 2 input error, 3 internal inconsistency (a cross-check that should
be unfalsifiable failed).
"""

import argparse
import json
import sys
from fractions import Fraction

from .bakry_emery import bakry_emery_curvature, be_effective_bound_report
from .classify import _rational, classify, report_to_json
from .errors import (
    GcurvError,
    InternalCheckError,
    NonpositiveCurvatureError,
    ParseError,
)
from .factorization import factorize
from .families import parse_family
from .graphs import effective_diameter, is_locally_connected, read_edge_list, read_text
from .ollivier import edge_curvature, min_edge_curvature
from .reflective import is_reflective
from .spectral import adjacency_spectrum, laplacian_spectrum
from .verify import load_corpus, run_all_checks

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _emit(args, payload: dict, text_lines) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _load_graph(args):
    if args.file is not None:
        return read_edge_list(args.file)
    return parse_family(args.family).build()


def _cmd_info(args):
    g = _load_graph(args)
    lc, witness = is_locally_connected(g)
    degrees = sorted({g.degree(v) for v in range(g.n)})
    payload = {
        "n": g.n,
        "m": g.m,
        "degrees": degrees,
        "regular": g.is_regular(),
        "locally_connected": lc,
    }
    lines = [
        f"vertices: {g.n}",
        f"edges: {g.m}",
        f"degrees: {' '.join(str(d) for d in degrees)}",
        f"regular: {g.is_regular()}",
        f"locally connected: {lc}"
        + ("" if lc else f" (disconnected neighborhood at {witness})"),
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_curvature(args):
    g = _load_graph(args)
    mec = min_edge_curvature(g)
    payload = {
        "kappa_min": _rational(mec.value),
        "constant": mec.is_constant,
        "min_edge": list(mec.min_edge),
        "edges": [
            {"edge": [x, y], "kappa": _rational(edge_curvature(g, x, y).value)}
            for (x, y) in g.edges
        ],
    }
    lines = [f"kappa_min: {mec.value}  (constant: {mec.is_constant})"]
    lines += [
        f"  ({x},{y}): {edge_curvature(g, x, y).value}" for (x, y) in g.edges
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_effective_diameter(args):
    g = _load_graph(args)
    de = effective_diameter(g)
    _emit(args, {"diam_eff": _rational(de)}, [f"diam_eff: {de}"])
    return EXIT_OK


def _cmd_reflective(args):
    g = _load_graph(args)
    verdict = is_reflective(g)
    payload = {
        "reflective": verdict.reflective,
        "counterexample": (
            None if verdict.counterexample is None
            else list(verdict.counterexample)
        ),
    }
    if verdict.reflective:
        _emit(args, payload, ["reflective: true"])
        return EXIT_OK
    _emit(args, payload, [
        "reflective: false",
        f"counterexample edge: {verdict.counterexample}",
    ])
    return EXIT_PROPERTY


def _cmd_spectrum(args):
    g = _load_graph(args)
    lap = laplacian_spectrum(g)
    adj = adjacency_spectrum(g)
    payload = {
        "laplacian": [float(f"{v:.12g}") for v in lap.values],
        "adjacency": [float(f"{v:.12g}") for v in adj.values],
    }
    lines = [
        "laplacian: " + " ".join(_fmt(v) for v in lap.values),
        "adjacency: " + " ".join(_fmt(v) for v in adj.values),
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_factorize(args):
    g = _load_graph(args)
    factors = factorize(g)
    payload = {
        "prime": len(factors) == 1,
        "factors": [{"n": f.n, "m": f.m, "edges": [list(e) for e in f.edges]}
                    for f in factors],
    }
    lines = [f"prime factors: {len(factors)}"]
    lines += [f"  factor {i}: {f.n} vertices, {f.m} edges"
              for i, f in enumerate(factors)]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_bakry_emery(args):
    g = _load_graph(args)
    values = [bakry_emery_curvature(g, x) for x in range(g.n)]
    payload = {"vertex_curvatures": [float(f"{v:.12g}") for v in values]}
    lines = [
        "vertex curvatures: " + " ".join(_fmt(v) for v in values),
    ]
    try:
        rep = be_effective_bound_report(g)
        payload["bound"] = {
            "k_min": float(f"{rep.k_min:.12g}"),
            "k_snapped": (
                None if rep.k_snapped is None else _rational(rep.k_snapped)
            ),
            "diam_eff": _rational(rep.diam_eff),
            "bound": float(f"{rep.bound:.12g}"),
            "holds": rep.bound_holds,
            "equality": rep.equality,
        }
        lines.append(
            f"diameter bound: diam_eff {rep.diam_eff} <= {_fmt(rep.bound)} "
            f"(K_min {_fmt(rep.k_min)}, equality: {rep.equality})"
        )
    except NonpositiveCurvatureError:
        payload["bound"] = None
        lines.append("diameter bound: not applicable (curvature not positive)")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_classify(args):
    g = _load_graph(args)
    report = classify(g)
    if args.json:
        print(report_to_json(report))
    else:
        factors = ", ".join(name for _, name in report.prime_factors)
        ia = report.distance_regular
        print(f"vertices: {report.n}  edges: {report.m}  "
              f"max degree: {report.max_degree}")
        print(f"regular: {report.regular}  "
              f"locally connected: {report.locally_connected}")
        print(f"kappa_min: {report.kappa_min}  "
              f"(constant: {report.kappa_constant})")
        print(f"diam_eff: {report.diam_eff}")
        print(f"effective diameter sharp: {report.eff_bm_sharp}")
        print(f"reflective: {report.reflective}")
        print(f"spectral gap: {_fmt(report.lambda_)}  "
              f"(gap equals curvature: {report.lichnerowicz_sharp})")
        print("intersection array: "
              + ("none" if ia is None else f"{list(ia.b)}; {list(ia.c)}"))
        print(f"prime factors: {factors}")
        for name, verdict in report.theorem_verdicts.items():
            state = "pass" if verdict.passed else f"FAIL ({verdict.witness})"
            print(f"  {name}: {state}")
    hard_failure = any(
        not v.passed and not (v.witness or "").startswith("skipped")
        for v in report.theorem_verdicts.values()
    )
    return EXIT_INTERNAL if hard_failure else EXIT_OK


def _cmd_verify_theorems(args):
    corpus = None
    if args.corpus != "standard":
        corpus = load_corpus(read_text(args.corpus).split("\n"))
    results = run_all_checks(corpus)
    payload = {
        "corpus": args.corpus,
        "checks": [
            {
                "check": r.check,
                "passed": r.passed,
                "witness": r.witness,
                "seconds": round(r.seconds, 3),
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        width = max((len(r.check) for r in results), default=8)
        for r in results:
            mark = "pass" if r.passed else "FAIL"
            note = f"  [{r.witness}]" if r.witness else ""
            print(f"{mark}  {r.check:<{width}}  {r.seconds:7.2f}s{note}")
        total = sum(r.seconds for r in results)
        failed = sum(1 for r in results if not r.passed)
        print(f"{len(results)} checks, {failed} failed, {total:.1f}s")
    return EXIT_OK if payload["all_passed"] else EXIT_INTERNAL


_GRAPH_COMMANDS = {
    "info": _cmd_info,
    "curvature": _cmd_curvature,
    "effective-diameter": _cmd_effective_diameter,
    "reflective": _cmd_reflective,
    "spectrum": _cmd_spectrum,
    "factorize": _cmd_factorize,
    "bakry-emery": _cmd_bakry_emery,
    "classify": _cmd_classify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcurv",
        description="Curvature, reflection symmetry, and classification "
                    "of finite graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _GRAPH_COMMANDS:
        p = sub.add_parser(name)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--file", help="edge list file ('n m' header)")
        src.add_argument("--family", help="family expression, e.g. 'J 5 2'")
        p.add_argument("--json", action="store_true")
    p = sub.add_parser("verify-theorems")
    p.add_argument("--corpus", required=True,
                   help="'standard' or a file of family expressions")
    p.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify-theorems":
            return _cmd_verify_theorems(args)
        return _GRAPH_COMMANDS[args.command](args)
    except (ParseError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalCheckError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except GcurvError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
