from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcurv.errors import TrivialGraphError
from gcurv.families import (
    cartesian_product,
    cocktail_party,
    complete_graph,
    cycle,
    gosset,
    hamming,
    hypercube,
    johnson,
    path_graph,
    schlafli,
)
from gcurv.factorization import edge_relation_components, factorize, is_prime
from gcurv.graphs import are_isomorphic, effective_diameter


def test_cube_splits_into_three_edges(q3):
    factors = factorize(q3)
    assert len(factors) == 3
    for f in factors:
        assert are_isomorphic(f, complete_graph(2)) is not None


def test_hamming_splits_into_triangles():
    factors = factorize(hamming(2, 3))
    assert len(factors) == 2
    for f in factors:
        assert are_isomorphic(f, complete_graph(3)) is not None


def test_reassembly_is_isomorphic(q3):
    rebuilt = reduce(cartesian_product, factorize(q3))
    assert are_isomorphic(rebuilt, q3) is not None


@pytest.mark.parametrize("g", [
    cycle(5),
    path_graph(4),
    johnson(5, 2),
    cocktail_party(3),
    schlafli(),
])
def test_primes(g):
    assert is_prime(g)
    assert len(factorize(g)) == 1


def test_gosset_prime(gosset_graph):
    assert is_prime(gosset_graph)


def test_factorize_rejects_single_vertex():
    from gcurv.graphs import build_graph

    with pytest.raises(TrivialGraphError):
        factorize(build_graph(1, []))


def test_edge_relation_components_cube(q3):
    part = edge_relation_components(q3)
    # one class per coordinate direction
    assert part.count == 3
    assert len(part.component_of) == q3.m


def test_factor_vertex_counts_multiply():
    prod = cartesian_product(cycle(5), complete_graph(3))
    factors = factorize(prod)
    total = 1
    for f in factors:
        total *= f.n
    assert total == prod.n


def test_factor_effective_diameters_add():
    g1, g2 = cocktail_party(3), hypercube(2)
    prod = cartesian_product(g1, g2)
    assert effective_diameter(prod) \
        == effective_diameter(g1) + effective_diameter(g2)


_PRIME_POOL = [complete_graph(2), complete_graph(3), cycle(5), path_graph(3),
               cocktail_party(3)]


@given(st.lists(st.sampled_from(range(len(_PRIME_POOL))), min_size=2,
                max_size=3))
@settings(max_examples=25, deadline=None)
def test_random_products_round_trip(indices):
    chosen = [_PRIME_POOL[i] for i in indices]
    size = 1
    for c in chosen:
        size *= c.n
    if size > 40:
        return
    prod = reduce(cartesian_product, chosen)
    factors = factorize(prod)
    assert len(factors) == len(chosen)
    remaining = list(chosen)
    for f in factors:
        hit = next(
            (i for i, c in enumerate(remaining)
             if are_isomorphic(f, c) is not None),
            None,
        )
        assert hit is not None
        remaining.pop(hit)
