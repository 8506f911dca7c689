"""Classification pipeline: predicates, cross-checks, family recognition.

Every predicate in the report is computed by its own module with no shortcut
inference; the known equivalences between them are then recorded as
cross-check verdicts.  A failed verdict therefore points at a bug in one of
the predicate implementations, which is exactly what makes the report useful
as a correctness instrument.
"""

import json

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import TrivialGraphError
from .factorization import factorize
from .families import (
    cocktail_party,
    complete_graph,
    gosset,
    halved_cube,
    hamming,
    hypercube,
    johnson,
    schlafli,
)
from .graphs import Graph, are_isomorphic, effective_diameter, is_locally_connected
from .ollivier import min_edge_curvature
from .reflective import is_reflective
from .spectral import (
    IntersectionArray,
    adjacency_spectrum,
    is_distance_regular,
    is_lichnerowicz_sharp,
)


@dataclass(frozen=True)
class TheoremVerdict:
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class ClassificationReport:
    n: int
    m: int
    max_degree: int
    regular: bool
    locally_connected: bool
    kappa_min: Fraction
    kappa_constant: bool
    diam_eff: Fraction
    eff_bm_sharp: bool
    reflective: bool
    lambda_: float
    lichnerowicz_sharp: bool
    distance_regular: IntersectionArray | None
    prime_factors: tuple
    theorem_verdicts: dict


def family_on_named_list(name: str) -> bool:
    """Whether an identified family belongs to the classification list.

    Complete graphs count (K_n is the k=1 Johnson graph); Hamming graphs and
    hypercubes do not, but they are products and never name a prime factor.
    """
    if name.startswith(("CP(", "J(", "HQ(")):
        return True
    if name in ("Schläfli", "Gosset"):
        return True
    return name.startswith("K") and name[1:].isdigit()


def _same_spectrum(g1: Graph, g2: Graph, tol: float = 1e-6) -> bool:
    v1 = adjacency_spectrum(g1).values
    v2 = adjacency_spectrum(g2).values
    return len(v1) == len(v2) and all(abs(a - b) <= tol for a, b in zip(v1, v2))


def _candidate_builders(n: int, deg: int):
    """Generators matching (n, deg), in fixed naming-precedence order.

    Precedence CP > J > HQ > H > Q > K settles graphs with several names
    (the octahedron is CP(3) rather than J(4,2), K4 is HQ(3) before K4 is
    complete).  Johnson parameters are canonicalized to b <= a - b.
    """
    out = []
    if n % 2 == 0 and n >= 4 and deg == n - 2:
        out.append((f"CP({n // 2})", lambda k=n // 2: cocktail_party(k)))
    a = 4
    while comb(a, 2) <= n:
        for b in range(2, a // 2 + 1):
            if comb(a, b) == n and b * (a - b) == deg:
                out.append((f"J({a},{b})", lambda p=a, q=b: johnson(p, q)))
        a += 1
    a = 3
    while 2 ** (a - 1) <= n:
        if 2 ** (a - 1) == n and comb(a, 2) == deg:
            out.append((f"HQ({a})", lambda p=a: halved_cube(p)))
        a += 1
    q = 2
    while q * q <= n:
        m = 2
        while q**m <= n:
            if q**m == n and m * (q - 1) == deg:
                out.append((f"H({m},{q})", lambda mm=m, qq=q: hamming(mm, qq)))
            m += 1
        q += 1
    a = 2
    while 2**a <= n:
        if 2**a == n and deg == a:
            out.append((f"Q{a}", lambda p=a: hypercube(p)))
        a += 1
    if n == 27 and deg == 16:
        out.append(("Schläfli", schlafli))
    if n == 56 and deg == 27:
        out.append(("Gosset", gosset))
    if deg == n - 1:
        out.append((f"K{n}", lambda k=n: complete_graph(k)))
    return out


def identify_family(g: Graph) -> str:
    """Canonical family name of a prime graph, or "unrecognized".

    Candidates are generated from (n, degree) arithmetic, filtered by the
    adjacency spectrum, and confirmed by an explicit isomorphism.
    """
    if g.n < 2 or not g.is_regular():
        return "unrecognized"
    deg = g.degree(0)
    for name, builder in _candidate_builders(g.n, deg):
        cand = builder()
        if cand.m != g.m:
            continue
        if not _same_spectrum(g, cand):
            continue
        if are_isomorphic(g, cand) is not None:
            return name
    return "unrecognized"


def _factors_share_curvature(factors) -> bool:
    values = set()
    for f in factors:
        mec = min_edge_curvature(f)
        if not mec.is_constant:
            return False
        values.add(mec.value)
    return len(values) <= 1


def classify(g: Graph) -> ClassificationReport:
    """Full predicate report with theorem cross-checks.

    Raises TrivialGraphError below two vertices; submodule errors propagate.
    """
    if g.n < 2:
        raise TrivialGraphError("classification needs at least two vertices")
    # reflections first: on a reflective graph they let min_edge_curvature
    # solve one LP per edge orbit
    refl = is_reflective(g)
    mec = min_edge_curvature(g)
    diam_eff = effective_diameter(g)
    max_deg = g.max_degree()
    # exact rationals on both sides, never a float comparison
    eff_bm_sharp = mec.value > 0 and diam_eff * mec.value == max_deg
    lc, _ = is_locally_connected(g)
    lich = is_lichnerowicz_sharp(g)
    dr = is_distance_regular(g)
    factors = factorize(g)
    names = [identify_family(f) for f in factors]

    verdicts = {}
    shared = _factors_share_curvature(factors)
    e1_rhs = refl.reflective and mec.is_constant and shared
    verdicts["E1_sharp_iff_reflective_constant"] = TheoremVerdict(
        eff_bm_sharp == e1_rhs,
        None
        if eff_bm_sharp == e1_rhs
        else (
            f"eff_bm_sharp={eff_bm_sharp} vs reflective={refl.reflective}, "
            f"kappa_constant={mec.is_constant}, factors_share_kappa={shared}, "
            f"min_edge={mec.min_edge}"
        ),
    )
    if lc:
        preds = {
            "eff_bm_sharp": eff_bm_sharp,
            "reflective": refl.reflective,
            "dr_and_lich": dr.array is not None and lich.sharp,
            "named_list": len(factors) == 1 and family_on_named_list(names[0]),
        }
        ok = len(set(preds.values())) == 1
        verdicts["E2_locally_connected_equivalences"] = TheoremVerdict(
            ok,
            None if ok else "; ".join(f"{k}={v}" for k, v in preds.items()),
        )
    else:
        verdicts["E2_locally_connected_equivalences"] = TheoremVerdict(
            True, "skipped: not locally connected"
        )
    e3_rhs = all(family_on_named_list(nm) for nm in names)
    verdicts["E3_reflective_iff_factors_named"] = TheoremVerdict(
        refl.reflective == e3_rhs,
        None
        if refl.reflective == e3_rhs
        else f"reflective={refl.reflective} vs factor families {names}",
    )

    return ClassificationReport(
        n=g.n,
        m=g.m,
        max_degree=max_deg,
        regular=g.is_regular(),
        locally_connected=lc,
        kappa_min=mec.value,
        kappa_constant=mec.is_constant,
        diam_eff=diam_eff,
        eff_bm_sharp=eff_bm_sharp,
        reflective=refl.reflective,
        lambda_=lich.lam,
        lichnerowicz_sharp=lich.sharp,
        distance_regular=dr.array,
        prime_factors=tuple(
            (f.edges, name) for f, name in zip(factors, names)
        ),
        theorem_verdicts=verdicts,
    )


def _rational(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def report_to_json(report: ClassificationReport) -> str:
    """Serialize a report deterministically; rationals stay exact."""
    dr = report.distance_regular
    payload = {
        "n": report.n,
        "m": report.m,
        "max_degree": report.max_degree,
        "regular": report.regular,
        "locally_connected": report.locally_connected,
        "kappa_min": _rational(report.kappa_min),
        "kappa_constant": report.kappa_constant,
        "diam_eff": _rational(report.diam_eff),
        "eff_bm_sharp": report.eff_bm_sharp,
        "reflective": report.reflective,
        "lambda": report.lambda_,
        "lichnerowicz_sharp": report.lichnerowicz_sharp,
        "distance_regular": (
            None if dr is None else {"b": list(dr.b), "c": list(dr.c)}
        ),
        "prime_factors": [
            {"edges": [list(e) for e in edges], "family": family}
            for edges, family in report.prime_factors
        ],
        "theorem_verdicts": {
            name: {"passed": v.passed, "witness": v.witness}
            for name, v in report.theorem_verdicts.items()
        },
    }
    return json.dumps(payload, indent=2)
