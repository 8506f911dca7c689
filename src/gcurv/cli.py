"""Command line front end.

Each command returns its JSON payload, its text lines and its exit code;
main alone builds the graph, prints one of the two forms and maps errors.
Exit codes: 0 success, 1 property failed (the queried property does not
hold), 2 input error, 3 internal inconsistency (a cross-check that should
be unfalsifiable failed), 141 (128 + SIGPIPE) when standard output is a
pipe that its reader closed.
"""

import argparse
import json
import os
import sys

from .bakry_emery import bakry_emery_curvature, be_effective_bound_report
from .classify import _rational, _report_payload, classify
from .errors import GcurvError, InternalCheckError, NonpositiveCurvatureError, ParseError
from .factorization import factorize
from .families import parse_family
from .graphs import effective_diameter, is_locally_connected, parse_edge_list, read_text
from .ollivier import edge_curvature, min_edge_curvature
from .reflective import is_reflective
from .spectral import adjacency_spectrum, laplacian_spectrum
from .verify import load_corpus, run_all_checks

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141


def _read(path: str) -> str:
    """A file's text; a file that cannot be read is an input error."""
    try:
        return read_text(path)
    except OSError as exc:
        raise ParseError(str(exc)) from None


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _cmd_info(g):
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
    return payload, lines, EXIT_OK


def _cmd_curvature(g):
    mec = min_edge_curvature(g)
    kappas = [edge_curvature(g, x, y).value for (x, y) in g.edges]
    payload = {
        "kappa_min": _rational(mec.value),
        "constant": mec.is_constant,
        "min_edge": list(mec.min_edge),
        "edges": [
            {"edge": [x, y], "kappa": _rational(kappa)}
            for (x, y), kappa in zip(g.edges, kappas)
        ],
    }
    lines = [f"kappa_min: {mec.value}  (constant: {mec.is_constant})"]
    lines += [f"  ({x},{y}): {kappa}" for (x, y), kappa in zip(g.edges, kappas)]
    return payload, lines, EXIT_OK


def _cmd_effective_diameter(g):
    de = effective_diameter(g)
    return {"diam_eff": _rational(de)}, [f"diam_eff: {de}"], EXIT_OK


def _cmd_reflective(g):
    verdict = is_reflective(g)
    payload = {
        "reflective": verdict.reflective,
        "counterexample": (
            None if verdict.counterexample is None
            else list(verdict.counterexample)
        ),
    }
    if verdict.reflective:
        return payload, ["reflective: true"], EXIT_OK
    lines = ["reflective: false", f"counterexample edge: {verdict.counterexample}"]
    return payload, lines, EXIT_PROPERTY


def _cmd_spectrum(g):
    lap = laplacian_spectrum(g)
    adj = adjacency_spectrum(g)
    payload = {
        "laplacian": [float(_fmt(v)) for v in lap.values],
        "adjacency": [float(_fmt(v)) for v in adj.values],
    }
    lines = [
        "laplacian: " + " ".join(_fmt(v) for v in lap.values),
        "adjacency: " + " ".join(_fmt(v) for v in adj.values),
    ]
    return payload, lines, EXIT_OK


def _cmd_factorize(g):
    factors = factorize(g)
    payload = {
        "prime": len(factors) == 1,
        "factors": [{"n": f.n, "m": f.m, "edges": [list(e) for e in f.edges]}
                    for f in factors],
    }
    lines = [f"prime factors: {len(factors)}"]
    lines += [f"  factor {i}: {f.n} vertices, {f.m} edges"
              for i, f in enumerate(factors)]
    return payload, lines, EXIT_OK


def _cmd_bakry_emery(g):
    values = [bakry_emery_curvature(g, x) for x in range(g.n)]
    payload = {"vertex_curvatures": [float(_fmt(v)) for v in values]}
    lines = [
        "vertex curvatures: " + " ".join(_fmt(v) for v in values),
    ]
    try:
        rep = be_effective_bound_report(g)
        payload["bound"] = {
            "k_min": float(_fmt(rep.k_min)),
            "k_snapped": (
                None if rep.k_snapped is None else _rational(rep.k_snapped)
            ),
            "diam_eff": _rational(rep.diam_eff),
            "bound": float(_fmt(rep.bound)),
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
    return payload, lines, EXIT_OK


def _cmd_classify(g):
    report = classify(g)
    factors = ", ".join(name for _, name in report.prime_factors)
    ia = report.distance_regular
    lines = [
        f"vertices: {report.n}  edges: {report.m}  "
        f"max degree: {report.max_degree}",
        f"regular: {report.regular}  "
        f"locally connected: {report.locally_connected}",
        f"kappa_min: {report.kappa_min}  "
        f"(constant: {report.kappa_constant})",
        f"diam_eff: {report.diam_eff}",
        f"effective diameter sharp: {report.eff_bm_sharp}",
        f"reflective: {report.reflective}",
        f"spectral gap: {_fmt(report.lambda_)}  "
        f"(gap equals curvature: {report.lichnerowicz_sharp})",
        "intersection array: "
        + ("none" if ia is None else f"{list(ia.b)}; {list(ia.c)}"),
        f"prime factors: {factors}",
    ]
    for name, verdict in report.theorem_verdicts.items():
        state = "pass" if verdict.passed else f"FAIL ({verdict.witness})"
        lines.append(f"  {name}: {state}")
    hard_failure = not all(v.passed for v in report.theorem_verdicts.values())
    return _report_payload(report), lines, EXIT_INTERNAL if hard_failure else EXIT_OK


def _cmd_verify_theorems(corpus_arg):
    corpus = None
    if corpus_arg != "standard":
        corpus = load_corpus(_read(corpus_arg).split("\n"))
    results = run_all_checks(corpus)
    payload = {
        "corpus": corpus_arg,
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
    width = max((len(r.check) for r in results), default=8)
    lines = []
    for r in results:
        mark = "pass" if r.passed else "FAIL"
        note = f"  [{r.witness}]" if r.witness else ""
        lines.append(f"{mark}  {r.check:<{width}}  {r.seconds:7.2f}s{note}")
    total = sum(r.seconds for r in results)
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results)} checks, {failed} failed, {total:.1f}s")
    return payload, lines, EXIT_OK if payload["all_passed"] else EXIT_INTERNAL


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
            payload, lines, code = _cmd_verify_theorems(args.corpus)
        else:
            if args.file is not None:
                g = parse_edge_list(_read(args.file))
            else:
                g = parse_family(args.family).build()
            payload, lines, code = _GRAPH_COMMANDS[args.command](g)
    except InternalCheckError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except GcurvError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: the rest of the output, and the flush at
        # exit, go to devnull instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
