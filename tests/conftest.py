import importlib.util
import pathlib

import pytest
from hypothesis import strategies as st

from gcurv.families import cocktail_party, gosset, hypercube, johnson, schlafli
from gcurv.graphs import build_graph


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 7):
    """Random connected graph: a random tree plus a random set of chords."""
    n = draw(st.integers(min_n, max_n))
    tree = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    tree_set = {(min(u, v), max(u, v)) for (u, v) in tree}
    rest = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in tree_set
    ]
    extra = (
        draw(st.lists(st.sampled_from(rest), unique=True, max_size=len(rest)))
        if rest
        else []
    )
    return build_graph(n, sorted(tree_set) + sorted(extra))


def load_workloads():
    """perfbench/workloads.py as a module, for its seeded benchmark inputs."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def octahedron():
    return cocktail_party(3)


@pytest.fixture(scope="session")
def j52():
    return johnson(5, 2)


@pytest.fixture(scope="session")
def q3():
    return hypercube(3)


@pytest.fixture(scope="session")
def schlafli_graph():
    return schlafli()


@pytest.fixture(scope="session")
def gosset_graph():
    return gosset()
