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
