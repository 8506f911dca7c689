"""Corpus members and the predictions read off their family expressions.

The table behind FamilySpec.prime_factors is the paper's: each test here
holds it to what gcurv computes on the built graph, and the criterion tests
show that a check fails on a user member when a computed value is wrong.
"""

import dataclasses
import importlib.util
import pathlib
from fractions import Fraction

import pytest

from gcurv import bakry_emery, ollivier, reflective, verify
from gcurv.classify import identify_family
from gcurv.factorization import factorize
from gcurv.graphs import MAX_VERTICES, effective_diameter, side_partition, sphere
from gcurv.ollivier import min_edge_curvature
from gcurv.reflective import (
    ReflectiveVerdict,
    are_parallel,
    find_reflection,
    is_reflective,
    side_classes,
    uncovered_vertex,
)
from gcurv.verify import STANDARD_CORPUS, CorpusMember, load_corpus

ROOT = pathlib.Path(__file__).resolve().parents[1]

# every keyword with small parameters, coincidences included
_TABLE_CASES = (
    [f"K {n}" for n in range(2, 8)]
    + [f"C {n}" for n in range(3, 10)]
    + [f"P {n}" for n in range(2, 8)]
    + [f"KB {a} {b}" for b in range(1, 5) for a in range(1, b + 1)]
    + [f"CP {k}" for k in range(2, 6)]
    + [f"J {n} {k}" for n in range(2, 8) for k in range(1, n)]
    + [f"HQ {n}" for n in range(2, 7)]
    + [f"Q {n}" for n in range(1, 5)]
    + [f"H {m} {q}" for m in (1, 2) for q in range(2, 5)]
    + ["schlafli", "gosset", "petersen"]
    + ["( K 2 x J 4 2 )", "( J 4 2 x CP 3 )", "( Q 2 x CP 3 )", "( C 5 x K 2 )",
       "( P 4 x K 2 )", "( K 3 x C 4 )", "( P 3 x K 1 )"]
)


def test_table_cases_cover_every_keyword():
    from gcurv.families import _GENERATORS

    assert len(_TABLE_CASES) == 79
    used = {verify.parse_family(text).kind for text in _TABLE_CASES}
    assert set(_GENERATORS) <= used


@pytest.mark.parametrize("text", _TABLE_CASES)
def test_prime_factor_table_matches_the_computed_values(text):
    (mem,) = load_corpus([text])
    g = mem.graph
    primes = mem.spec.prime_factors()
    factors = factorize(g)
    assert sorted((f.n, f.m) for f in factors) == sorted((n, m) for n, m, _ in primes)
    # each factor is named exactly when the table gives it a curvature, and
    # the named spec's own table row is that factor's
    for f in factors:
        (kappa,) = {k for n, m, k in primes if (n, m) == (f.n, f.m)}
        spec = identify_family(f)
        assert (spec is not None) == (kappa is not None)
        if spec is not None:
            assert spec.prime_factors() == [(f.n, f.m, kappa)]
    pred = verify._predict(mem)
    assert is_reflective(g).reflective == pred.named
    mec = min_edge_curvature(g)
    de = effective_diameter(g)
    assert (mec.value > 0 and de * mec.value == g.max_degree()) == pred.sharp
    if pred.named:
        assert mec.value == pred.kappa
        assert mec.is_constant == pred.sharp
        assert de == pred.diam_eff
    else:
        assert (pred.kappa, pred.diam_eff) == (None, None)


def test_corpus_member_has_only_a_spec_and_a_graph():
    assert [f.name for f in dataclasses.fields(CorpusMember)] == ["spec", "graph"]
    mem = load_corpus(["( K 2 x J 4 2 )"])[0]
    assert mem.name == "( K 2 x J 4 2 )"


def test_standard_corpus_is_its_expressions_in_order():
    assert len(STANDARD_CORPUS) == 32
    names = [mem.name for mem in verify.standard_corpus()]
    assert names == [verify.parse_family(e).label() for e in STANDARD_CORPUS]
    assert names[-2:] == ["( C 5 x K 2 )", "( P 4 x K 2 )"]


def test_load_corpus_skips_comments_and_numbers_lines():
    members = load_corpus(["# a comment", "", "  K 3  ", "C 5"])
    assert [m.name for m in members] == ["K 3", "C 5"]
    with pytest.raises(verify.ParseError, match="corpus line 2: "):
        load_corpus(["K 3", "Z 9"])
    with pytest.raises(verify.ParseError, match="lists no graphs"):
        load_corpus(["# nothing"])


def test_criterion_01_checks_a_user_member(monkeypatch):
    real = verify.min_edge_curvature
    monkeypatch.setattr(verify, "min_edge_curvature",
                        lambda g: real(g)._replace(value=real(g).value + 1))
    assert verify._check_curvature_constants(load_corpus(["CP 3"])) == "CP 3: kappa 5 != 4"


def test_criterion_01_holds_a_one_prime_product_to_its_array(monkeypatch):
    # K 1 factors leave one prime: locally connected members are such, and
    # criterion_01 is where every edge of them meets 1 + b0 - b1
    corpus = load_corpus(["( K 1 x J 5 2 )"])
    assert verify._check_curvature_constants(corpus) is None
    real = verify.curvature_from_intersection_array
    monkeypatch.setattr(verify, "curvature_from_intersection_array", lambda ia: real(ia) + 1)
    assert (verify._check_curvature_constants(corpus)
            == "( K 1 x J 5 2 ): 1+b0-b1 = 6 != kappa 5")


def test_criterion_01_solves_one_lp_per_edge_orbit(monkeypatch):
    calls = []
    real = ollivier.solve_lipschitz_lp
    monkeypatch.setattr(ollivier, "solve_lipschitz_lp",
                        lambda g, lp, *plan: calls.append(lp) or real(g, lp, *plan))
    assert verify._check_curvature_constants(load_corpus(["CP 4"])) is None
    # the 24 edges of CP 4 form one orbit of its reflections
    assert len(calls) == 1


def test_criterion_09_compares_the_forms_of_members_above_ten_vertices(monkeypatch):
    corpus = load_corpus(["CP 3", "Q 4"])
    # pencils and bound reports cached from the true forms; only the form
    # criterion_09 compares with the recursion is then corrupted, on Q 4 alone
    for mem in corpus:
        bakry_emery.be_effective_bound_report(mem.graph)
    real = bakry_emery.gamma2_form

    def corrupted(g, x):
        form = real(g, x)
        if g.n <= 10:
            return form
        rows = [list(row) for row in form.numerators]
        rows[0][0] += 1
        return dataclasses.replace(form, numerators=tuple(map(tuple, rows)))

    monkeypatch.setattr(bakry_emery, "gamma2_form", corrupted)
    assert verify._check_bakry_emery(corpus) == "Q 4 vertex 0: iterated form mismatch"


def test_criterion_02_checks_a_user_member(monkeypatch):
    real = verify.effective_diameter
    monkeypatch.setattr(verify, "effective_diameter", lambda g: real(g) + Fraction(1, 2))
    assert verify._check_effective_diameter(load_corpus(["CP 3"])) == "CP 3: diam_eff 3/2 != 1"


def test_criterion_03_checks_a_user_member(monkeypatch):
    monkeypatch.setattr(verify, "is_reflective", lambda g: ReflectiveVerdict(False, (0, 2)))
    witness = verify._check_reflectiveness(load_corpus(["CP 3"]))
    assert witness == "CP 3: not reflective at (0, 2)"


def test_criterion_05_checks_a_user_member(monkeypatch):
    monkeypatch.setattr(verify, "factorize", lambda g: [g, g])
    witness = verify._check_factorization_round_trip(load_corpus(["CP 3"]))
    assert witness == "CP 3: factor sizes [(6, 12), (6, 12)] != [(6, 12)]"


def test_criterion_05_tests_the_self_isomorphism_of_a_prime_member(monkeypatch):
    # a prime member is its own factor product: are_isomorphic(g, g)
    monkeypatch.setattr(verify, "are_isomorphic", lambda g, h: None)
    witness = verify._check_factorization_round_trip(load_corpus(["petersen"]))
    assert witness == "petersen: factor product differs from the original"


def _pairwise_parallel_structure(name, g):
    """All-pairs reference: equivalence, reflection-pairing remark, cover.

    Scans every directed-edge pair.  The suite checks the equivalence once
    per side class (reflective.parallel_equivalence) and the cover of every
    unit ball once per side class in criterion_06; the remark is the
    cross-edge axiom of reflection_axioms.  The cover is found here by
    brute force: for every edge e and vertex z, some directed e' with
    are_parallel(e, e') has both ends within distance 1 of z.
    """
    dirs = [e for (x, y) in g.edges for e in ((x, y), (y, x))]
    sx, sy, keys = {}, {}, {}
    interned = {}
    for e in dirs:
        sp = side_partition(g, *e)
        a, b = frozenset(sp.side_x), frozenset(sp.side_y)
        sx[e], sy[e] = a, b
        keys[e] = interned.setdefault((a, b), len(interned))
    out = {"equivalence": None, "remark": None, "cover": None}
    partners = {e: [] for e in dirs}
    for e1 in dirs:
        for e2 in dirs:
            related = e2[0] in sx[e1] and e2[1] in sy[e1]
            if related != (keys[e1] == keys[e2]):
                out["equivalence"] = (f"{name}: relation disagrees with side "
                                      f"classes at {e1} vs {e2}")
                return out
            if related:
                partners[e1].append(e2)
    for e in dirs:
        m = find_reflection(g, *e).reflection.mapping
        if set(partners[e]) != {(v, m[v]) for v in sx[e]}:
            out["remark"] = f"{name}: partners of {e} differ from the reflection pairing"
            break
    out["cover"] = _uncovered_ball(name, g)
    return out


def _uncovered_ball(name, g):
    """First edge e and vertex z with no copy parallel to e inside N[z], or None."""
    dist = g.dist_rows()
    dirs = [e for (x, y) in g.edges for e in ((x, y), (y, x))]
    for e in g.edges:
        copies = [e2 for e2 in dirs if are_parallel(g, e, e2)]
        for z in range(g.n):
            if not any(dist[z][u] <= 1 and dist[z][v] <= 1 for (u, v) in copies):
                return f"{name} {e}: no parallel copy in the unit ball of {z}"
    return None


def test_parallel_structure_per_class_matches_the_pairwise_scan(monkeypatch):
    members = [mem for mem in verify.standard_corpus() if is_reflective(mem.graph).reflective]
    for mem in members:
        corpus = (mem,)
        ref = _pairwise_parallel_structure(mem.name, mem.graph)
        assert verify._check_parallel_equivalence(corpus) == ref["equivalence"]
        assert ref["cover"] is None
        assert all(uncovered_vertex(mem.graph, ms) is None
                   for ms in side_classes(mem.graph).values())
        assert verify._check_structural_suite(corpus) is None
        # the remark the suite no longer checks follows from the reflection axioms
        if verify._check_reflection_axioms(corpus) is None:
            assert ref["remark"] is None
    # only reflective members reach the scan: let two that are not reach it
    monkeypatch.setattr(verify, "is_reflective", lambda g: ReflectiveVerdict(True, None))
    witnesses = []
    for mem in load_corpus(["KB 2 3", "KB 3 3"]):
        corpus = (mem,)
        witness = verify._check_parallel_equivalence(corpus)
        assert witness == _pairwise_parallel_structure(mem.name, mem.graph)["equivalence"]
        witnesses.append(witness)
    assert witnesses == [
        "KB 2 3: relation disagrees with side classes at (0, 2) vs (3, 1)",
        "KB 3 3: relation disagrees with side classes at (0, 3) vs (4, 1)",
    ]


def _refuse(monkeypatch, bad):
    """Make reflective.is_isometric_subset refuse exactly the vertex set bad."""
    real = reflective.is_isometric_subset
    monkeypatch.setattr(reflective, "is_isometric_subset",
                        lambda g, s: set(s) != bad and real(g, s))


def test_criterion_06_reports_a_bad_unit_sphere_at_its_vertex(monkeypatch):
    # J 5 2 is reflective, hence vertex-transitive, so only vertex 0's sphere is read
    corpus = load_corpus(["J 5 2"])
    _refuse(monkeypatch, set(sphere(corpus[0].graph, 0, 1)))
    assert verify._check_structural_suite(corpus) == "J 5 2: vertex 0: unit sphere not isometric"


def test_criterion_06_reports_a_bad_cap_at_its_vertex(monkeypatch):
    corpus = load_corpus(["J 5 2"])
    g = corpus[0].graph
    dist = g.dist_rows()
    caps = ((w, {u for u in g.neighbors[0] if dist[u][w] == dist[0][w] + 1})
            for w in range(1, g.n))
    w, cap = next((w, cap) for w, cap in caps if len(cap) >= 2)
    _refuse(monkeypatch, cap)
    assert (verify._check_structural_suite(corpus)
            == f"J 5 2: vertex 0: cap away from {w} not isometric")


def test_criterion_06_reports_a_class_that_misses_a_unit_ball():
    # (0, 1) is the only member of its class inside the unit ball of vertex 0
    corpus = load_corpus(["Q 3"])
    classes = side_classes(corpus[0].graph)
    key = next(k for k, members in classes.items() if members[0] == (0, 1))
    classes[key] = classes[key][1:]
    assert (verify._check_structural_suite(corpus)
            == "Q 3 (2,3): no parallel edge in the unit ball of 0")


def test_the_cover_fails_at_the_same_vertex_on_a_graph_that_is_not_reflective():
    g = load_corpus(["C 6"])[0].graph
    assert uncovered_vertex(g, side_classes(g)[(0, 4, 5), (1, 2, 3)]) == 2
    assert _uncovered_ball("C 6", g) == "C 6 (0, 1): no parallel copy in the unit ball of 2"


def _plant(monkeypatch, vertex):
    """(N A + E_11, N a_den) at vertex: K moves by under 1e-14, off the rationals."""
    real = bakry_emery._inner_gamma2
    big = 10 ** 13

    def planted(g, x):
        a_num, a_den = real(g, x)
        if x != vertex:
            return a_num, a_den
        return ([[big * v + (i == j == 0) for j, v in enumerate(row)]
                 for i, row in enumerate(a_num)], big * a_den)

    monkeypatch.setattr(bakry_emery, "_inner_gamma2", planted)


def test_vertex_transitive_consistency_names_a_vertex_below_float_noise(monkeypatch):
    _plant(monkeypatch, 3)
    assert (verify._check_vertex_transitive_consistency(load_corpus(["J 5 2"]))
            == "J 5 2: vertex 3: curvature is not 7/2, vertex 0's")


def test_vertex_transitive_consistency_holds_a_hypercube_to_curvature_2(monkeypatch):
    # criterion_09 decides K = 2 at vertex 0 only; this check reaches the rest
    real = verify._pencil_psd_nullity
    monkeypatch.setattr(verify, "_pencil_psd_nullity",
                        lambda g, x, r: (False, None) if x == 5 else real(g, x, r))
    corpus = load_corpus(["Q 3"])
    assert verify._check_bakry_emery(corpus) is None
    assert (verify._check_vertex_transitive_consistency(corpus)
            == "Q 3: vertex 5: curvature is not 2, vertex 0's")


def test_vertex_transitive_consistency_leaves_an_irrational_curvature_undecided(monkeypatch):
    _plant(monkeypatch, 0)
    assert (verify._check_vertex_transitive_consistency(load_corpus(["J 5 2"]))
            == "J 5 2: curvature at vertex 0 is irrational: equality undecided")


def test_distance_regular_recount_reaches_a_member_over_64_vertices(monkeypatch):
    seen = []
    real = verify._recount_intersection_numbers
    monkeypatch.setattr(verify, "_recount_intersection_numbers",
                        lambda g: seen.append(g.n) or real(g))
    assert verify._check_distance_regular_recount(load_corpus(["Q 7"])) is None
    assert seen == [128]


def test_convex_implies_isometric_reaches_every_side_of_gosset(monkeypatch):
    corpus = load_corpus(["gosset"])
    g = corpus[0].graph
    seen = set()
    real = verify.is_convex_subset
    monkeypatch.setattr(verify, "is_convex_subset",
                        lambda graph, side: seen.add(side) or real(graph, side))
    assert verify._check_convex_implies_isometric(corpus) is None
    every = {side_partition(g, *e).side_x for (x, y) in g.edges for e in ((x, y), (y, x))}
    assert len(every) == 126
    assert seen == every


def test_reflection_axioms_reject_a_foreign_member_of_a_side_class(monkeypatch):
    corpus = load_corpus(["J 4 2"])
    mem = corpus[0]
    g = mem.graph
    assert verify._check_reflection_axioms(corpus) is None
    classes = {sides: list(members) for sides, members in side_classes(g).items()}
    first = next(iter(classes.values()))
    # an edge of another class, which the first class's reflection does not swap
    m = find_reflection(g, *first[0]).reflection.mapping
    u, v = next(e for ms in classes.values() if ms is not first for e in ms if m[e[0]] != e[1])
    first.append((u, v))
    monkeypatch.setattr(verify, "side_classes", lambda graph: classes)
    assert verify._check_reflection_axioms(corpus) == \
        f"{mem.name} ({u},{v}): endpoints not exchanged"


def _load_script(name):
    path = ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_survey_uses_the_corpus_loader(tmp_path, capsys):
    survey = _load_script("corpus_survey")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("K 3\n# a comment\nC 5\n")
    assert survey.main(["--corpus", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert "K 3" in out and "C 5" in out and "# 2 members" in out
    corpus.write_text("K 1\n")
    assert survey.main(["--corpus", str(corpus)]) == 2
    assert "corpus line 1: K 1 needs at least two vertices" in capsys.readouterr().err
    corpus.write_bytes(b"K 3\n\xff\n")
    assert survey.main(["--corpus", str(corpus)]) == 2
    assert f"{corpus}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--min-n", "1"],
    ["--min-n", "0"],
    ["--min-n", "9", "--max-n", "4"],
    ["--min-n", str(MAX_VERTICES + 1), "--max-n", str(MAX_VERTICES + 1), "--samples", "0"],
], ids=["trivial", "empty", "crossed", "over_budget"])
def test_sharpness_search_refuses_bad_sizes(args, capsys):
    search = _load_script("sharpness_search")
    with pytest.raises(SystemExit) as exc:
        search.main(["--samples", "1"] + args)
    assert exc.value.code == 2
    assert f"need 2 <= --min-n <= --max-n <= {MAX_VERTICES}" in capsys.readouterr().err


def test_sharpness_search_runs(capsys):
    search = _load_script("sharpness_search")
    assert search.main(["--samples", "3", "--min-n", "4", "--max-n", "5"]) == 0
    assert "# 3 samples" in capsys.readouterr().out
