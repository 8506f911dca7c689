"""The benchmark's tracer must still find every gcurv name it wraps.

``perfbench/tracing.py`` rebinds gcurv functions by name, so renaming one
breaks every traced benchmark run.  The tracer is loaded by file path so
that the already-imported gcurv modules stay the ones under test.
"""

import importlib
import importlib.util
import pathlib
import types

import gcurv.cli  # noqa: F401  (imports every module the tracer scans)
from gcurv.families import hypercube

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ("graphs", "families", "ollivier", "reflective", "factorization",
           "spectral", "bakry_emery", "classify")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_one_eigen_call_per_spectrum_miss():
    tracing = _load_tracing()
    gc = types.SimpleNamespace(
        **{name: importlib.import_module(f"gcurv.{name}") for name in MODULES})
    tracer = tracing.Tracer()
    tracer.install(gc)
    try:
        g = hypercube(3)
        gc.spectral.laplacian_spectrum(g)
        gc.spectral.laplacian_spectrum(g)  # a cache hit is not counted
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    assert summary["spectral.eigen_calls"] == 1
    assert summary["spectral.eigen_s"] > 0
    assert tracing.wrapped_names() == []


def test_tracer_charges_form_assembly_to_the_forms_layer():
    tracing = _load_tracing()
    gc = types.SimpleNamespace(
        **{name: importlib.import_module(f"gcurv.{name}") for name in MODULES})
    tracer = tracing.Tracer()
    tracer.install(gc)
    try:
        gc.bakry_emery.bakry_emery_curvature(hypercube(3), 0)
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    assert summary["bakry_emery.forms_s"] > 0
    # 3 neighbors in the gradient form, 6 in the punctured two-ball
    assert summary["bakry_emery.form_vars_sum"] == 9
    assert tracing.wrapped_names() == []


def test_tracer_times_the_isomorphism_search_of_identify_family(gosset_graph):
    tracing = _load_tracing()
    gc = types.SimpleNamespace(
        **{name: importlib.import_module(f"gcurv.{name}") for name in MODULES})
    tracer = tracing.Tracer()
    tracer.install(gc)
    try:
        # classify's own binding of are_isomorphic must carry the span
        assert gc.classify.identify_family(gosset_graph) is not None
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    assert summary["graphs.isomorphism_s"] > 0
    assert tracing.wrapped_names() == []


def test_tracer_charges_a_plan_answered_edge_to_the_edge_lp_layer(monkeypatch):
    tracing = _load_tracing()
    gc = types.SimpleNamespace(
        **{name: importlib.import_module(f"gcurv.{name}") for name in MODULES})

    def no_fallback(*args):
        raise AssertionError("the optimal plan was built")

    monkeypatch.setattr(gc.ollivier, "_optimal_plan", no_fallback)
    tracer = tracing.Tracer()
    tracer.install(gc)
    try:
        # the greedy plan's point answers the edge: no optimal plan is built
        assert gc.ollivier.edge_curvature(hypercube(3), 0, 1).value == 2
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    assert summary["ollivier.edge_lp_solves"] == 1
    assert summary["ollivier.longrange_lp_solves"] == 0
    assert summary["ollivier.edge_lp_s"] > 0
    assert tracing.wrapped_names() == []


def test_tracer_charges_a_plan_answered_far_pair_to_the_long_range_layer(monkeypatch):
    tracing = _load_tracing()
    gc = types.SimpleNamespace(
        **{name: importlib.import_module(f"gcurv.{name}") for name in MODULES})

    def no_fallback(*args):
        raise AssertionError("the optimal plan was built")

    monkeypatch.setattr(gc.ollivier, "_optimal_plan", no_fallback)
    tracer = tracing.Tracer()
    tracer.install(gc)
    try:
        # the greedy plan's point answers the pair at distance 3: no optimal
        # plan is built
        assert gc.ollivier.long_range_curvature(hypercube(3), 0, 7).value == 2
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    assert summary["ollivier.longrange_lp_solves"] == 1
    assert summary["ollivier.edge_lp_solves"] == 0
    assert summary["ollivier.longrange_lp_s"] > 0
    assert tracing.wrapped_names() == []
