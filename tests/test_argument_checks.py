"""Every function of a vertex, a vertex pair or an edge refuses a bad argument.

A vertex must be an integer in 0..n-1: -1 would otherwise read as vertex
n - 1 and 1.0 raise a bare TypeError.  A pair's ends must differ, and an
edge's ends must be adjacent.  The graph is Q3, which is reflective, so
vxy_convex_reflective_check reaches its edge check; vertex 7 (-1 read
modulo 8) is adjacent to 3.
"""

import pytest

from gcurv.bakry_emery import bakry_emery_curvature, gamma2_form, gamma_form
from gcurv.errors import InvalidParameterError, NotAdjacentError, SameVertexError
from gcurv.families import hypercube
from gcurv.graphs import ball, side_partition, sphere
from gcurv.ollivier import (
    brute_force_curvature_oracle,
    build_lipschitz_lp,
    edge_curvature,
    long_range_curvature,
)
from gcurv.reflective import (
    are_parallel,
    candidate_reflection,
    distance_eigenfunction_check,
    find_reflection,
    matching_structure_check,
    triangle_matching_check,
    vxy_convex_reflective_check,
)

Q3 = hypercube(3)
BAD = [-1, Q3.n, 1.0]

VERTEX = {
    "sphere": lambda g, x: sphere(g, x, 1),
    "ball": lambda g, x: ball(g, x, 1),
    "gamma_form": gamma_form,
    "gamma2_form": gamma2_form,
    "bakry_emery_curvature": bakry_emery_curvature,
    "distance_eigenfunction_check": lambda g, x: distance_eigenfunction_check(g, x, 2),
}

PAIR = {
    "build_lipschitz_lp": build_lipschitz_lp,
    "long_range_curvature": long_range_curvature,
    "brute_force_curvature_oracle": brute_force_curvature_oracle,
    "edge_curvature": edge_curvature,
}

EDGE = {
    "edge_curvature": edge_curvature,
    "side_partition": side_partition,
    "candidate_reflection": candidate_reflection,
    "find_reflection": find_reflection,
    "are_parallel, first edge": lambda g, x, y: are_parallel(g, (x, y), (0, 1)),
    "are_parallel, second edge": lambda g, x, y: are_parallel(g, (0, 1), (x, y)),
    "matching_structure_check": lambda g, x, y: matching_structure_check(g, x, y, 2),
    "triangle_matching_check": triangle_matching_check,
    "vxy_convex_reflective_check": vxy_convex_reflective_check,
}

TWO_ENDS = PAIR | EDGE


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("name", VERTEX)
def test_vertex_functions_refuse_a_bad_vertex(name, bad):
    with pytest.raises(InvalidParameterError):
        VERTEX[name](Q3, bad)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("first", [True, False], ids=["first end", "second end"])
@pytest.mark.parametrize("name", TWO_ENDS)
def test_pair_and_edge_functions_refuse_a_bad_end(name, first, bad):
    with pytest.raises(InvalidParameterError):
        TWO_ENDS[name](Q3, *((bad, 3) if first else (3, bad)))


@pytest.mark.parametrize("name", PAIR)
def test_pair_functions_refuse_a_degenerate_pair(name):
    with pytest.raises(SameVertexError):
        PAIR[name](Q3, 3, 3)


@pytest.mark.parametrize("name", EDGE)
def test_edge_functions_refuse_a_non_edge(name):
    with pytest.raises(NotAdjacentError):
        EDGE[name](Q3, 0, 7)
