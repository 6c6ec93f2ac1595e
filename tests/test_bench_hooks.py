"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps library
functions by module attribute.  These tests fail when a rename in ``invspec``
would leave a wrapper pointing at nothing or an empty span.

``perfbench/tracing.py`` is compiled from its source text, so nothing is
written under ``perfbench/``.
"""
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import invspec.forward as forward
import invspec.inverse as inverse
import invspec.roundtrip as roundtrip
from invspec.core import PI, sample_potential
from invspec.roundtrip import example6_data

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_patches_existing_attributes(tracing):
    originals = {name: getattr(roundtrip, name) for name in dir(roundtrip)}
    real_solve_gl = inverse.solve_gl
    tracer = tracing.Tracer()
    try:
        tracer.install()
    except AttributeError as exc:
        tracer.uninstall()
        pytest.fail(f"Tracer.install wraps an attribute invspec does not have: {exc}")
    patched = [(module.__name__, attr) for module, attr, _ in tracer._undo]
    tracer.uninstall()
    assert ("invspec.inverse", "solve_gl") in patched
    for attr in ("solve_ivp", "delta_sequence", "eigenvalues", "norming_constants"):
        assert ("invspec.forward", attr) in patched
    assert ("invspec.roundtrip", "solve_kernel_field") in patched
    assert inverse.solve_gl is real_solve_gl
    assert all(getattr(roundtrip, name) is obj for name, obj in originals.items())


def test_traced_pipeline_counts_rows_and_field_time(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        roundtrip.inverse_pipeline(example6_data(40))
    finally:
        tracer.uninstall()
    layer = tracer.summary((0, Counter()))
    assert layer["inverse.rows_solved"] == 192
    assert layer["inverse.kernel_field_s"] > 0.0


def test_traced_forward_solve_fills_forward_spans(tracing):
    # forward_solve reaches eigenvalues and norming_constants through module globals
    tracer = tracing.Tracer()
    tracer.install()
    try:
        forward.forward_solve(sample_potential(np.cos), PI / 3, 16)
    finally:
        tracer.uninstall()
    layer = tracer.summary((0, Counter()))
    assert layer["forward.eigenvalues_s"] > 0.0
    assert layer["forward.norming_constants_s"] > 0.0
