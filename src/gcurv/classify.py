"""Classification pipeline: predicates, cross-checks, family recognition.

Each predicate in the report is computed by its own module, and the known
equivalences between them are then recorded as cross-check verdicts, so a
failed verdict points at a bug in one of the predicate implementations.  One
predicate leans on another: when ``is_reflective`` holds,
``spectral.is_distance_regular`` reads vertex 0's row alone (a reflective
graph is vertex-transitive), and the Lichnerowicz verdict reads its array.
E2's ``dr_and_lich == reflective`` is therefore not independent of
``is_reflective``; verify's ``spectral.distance_regular_recount``, which
recounts every row, is the independent check of the array.
"""

import json

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import TrivialGraphError
from .factorization import factorize
from .families import FamilySpec
from .graphs import Graph, are_isomorphic, effective_diameter, is_locally_connected
from .ollivier import min_edge_curvature
from .reflective import is_reflective
from .spectral import IntersectionArray, is_distance_regular, is_lichnerowicz_sharp


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


# report names of the families on the paper's list, by FamilySpec kind
_FORMATS = {
    "CP": "CP({})".format,
    "J": "J({},{})".format,
    "HQ": "HQ({})".format,
    "schlafli": lambda: "Schläfli",
    "gosset": lambda: "Gosset",
    "K": "K{}".format,
}


def family_name(spec: FamilySpec | None) -> str:
    """Report name of an identified family, "unrecognized" for None."""
    return "unrecognized" if spec is None else _FORMATS[spec.kind](*spec.params)


def _candidates(n: int):
    """Specs of the paper's list that may have n vertices, in precedence order.

    Precedence CP > J > HQ > Schläfli > Gosset > K settles graphs with
    several names (the octahedron is CP(3) rather than J(4,2), K4 is HQ(3)
    before it is complete).  Johnson parameters are canonical, 2 <= b <= a - b,
    and stop at the first b with C(a, b) > n, since C(a, b) grows with b up to
    a/2.  Parameters are clamped to valid ones; a clamped spec never has n
    vertices.
    """
    yield FamilySpec("CP", (max(2, n // 2),))
    a = 4
    while a * (a - 1) // 2 <= n:
        for b in range(2, a // 2 + 1):
            if comb(a, b) > n:
                break
            yield FamilySpec("J", (a, b))
        a += 1
    yield FamilySpec("HQ", (max(3, n.bit_length()),))
    yield FamilySpec("schlafli")
    yield FamilySpec("gosset")
    yield FamilySpec("K", (n,))


def identify_family(g: Graph) -> FamilySpec | None:
    """The first family on the paper's list that g is isomorphic to, or None.

    Candidates of g's order and size are confirmed by a certified
    isomorphism, which alone decides.
    """
    if g.n < 2:
        return None
    for spec in _candidates(g.n):
        if spec.size() == (g.n, g.m) and are_isomorphic(g, spec.build()) is not None:
            return spec
    return None


def _factors_share_curvature(factors) -> bool:
    values = set()
    for f in factors:
        mec = min_edge_curvature(f)
        if not mec.is_constant:
            return False
        values.add(mec.value)
    return len(values) <= 1


def _verdict(ok: bool, witness: str) -> TheoremVerdict:
    return TheoremVerdict(ok, None if ok else witness)


def classify(g: Graph) -> ClassificationReport:
    """Full predicate report with theorem cross-checks.

    Raises TrivialGraphError below two vertices; submodule errors propagate.
    """
    if g.n < 2:
        raise TrivialGraphError("classification needs at least two vertices")
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
    specs = [identify_family(f) for f in factors]
    names = [family_name(s) for s in specs]

    verdicts = {}
    shared = _factors_share_curvature(factors)
    e1_rhs = refl.reflective and mec.is_constant and shared
    verdicts["E1_sharp_iff_reflective_constant"] = _verdict(
        eff_bm_sharp == e1_rhs,
        f"eff_bm_sharp={eff_bm_sharp} vs reflective={refl.reflective}, "
        f"kappa_constant={mec.is_constant}, factors_share_kappa={shared}, "
        f"min_edge={mec.min_edge}",
    )
    if lc:
        preds = {
            "eff_bm_sharp": eff_bm_sharp,
            "reflective": refl.reflective,
            "dr_and_lich": dr.array is not None and lich.sharp,
            "named_list": len(factors) == 1 and specs[0] is not None,
        }
        verdicts["E2_locally_connected_equivalences"] = _verdict(
            len(set(preds.values())) == 1,
            "; ".join(f"{k}={v}" for k, v in preds.items()),
        )
    else:
        verdicts["E2_locally_connected_equivalences"] = TheoremVerdict(
            True, "skipped: not locally connected"
        )
    e3_rhs = None not in specs
    verdicts["E3_reflective_iff_factors_named"] = _verdict(
        refl.reflective == e3_rhs,
        f"reflective={refl.reflective} vs factor families {names}",
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


def _report_payload(report: ClassificationReport) -> dict:
    """JSON-ready dict of a report; rationals stay exact."""
    dr = report.distance_regular
    return {
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


def report_to_json(report: ClassificationReport) -> str:
    """Serialize a report deterministically; rationals stay exact."""
    return json.dumps(_report_payload(report), indent=2)
