"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps library
functions by module attribute, and its checks read the inverse result's
attributes.  These tests fail when a rename in ``invspec`` would leave a
wrapper pointing at nothing or an empty span, or a check reading a name that
is gone.

``perfbench/tracing.py``, ``references.py`` and ``workloads.py`` are compiled
from their source text, so nothing is written under ``perfbench/``.
"""
import sys
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

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _compile(name: str, path: Path) -> types.ModuleType:
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _compile("perfbench_tracing", PERFBENCH / "tracing.py")


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports references.py by its plain name, and its
    # dataclasses look their module up in sys.modules while they are built
    names = ("references", "perfbench_workloads")
    saved = {name: sys.modules.pop(name, None) for name in names}
    try:
        sys.modules["references"] = _compile("references", PERFBENCH / "references.py")
        module = sys.modules["perfbench_workloads"] = types.ModuleType("perfbench_workloads")
        module.__file__ = str(PERFBENCH / "workloads.py")
        exec(compile((PERFBENCH / "workloads.py").read_text(), module.__file__, "exec"),
             module.__dict__)
        return module
    finally:
        for name in names:
            sys.modules.pop(name, None)
            if saved[name] is not None:
                sys.modules[name] = saved[name]


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
        field = roundtrip.inverse_pipeline(example6_data(40)).field
    finally:
        tracer.uninstall()
    # the field holds every row, so a pipeline asks for none; a row read
    # through field.row inside a span is counted
    layer = tracer.summary((0, Counter()))
    assert layer["inverse.rows_solved"] == 0
    assert layer["inverse.kernel_field_s"] > 0.0
    assert layer["inverse.build_H_s"] > 0.0
    tracer.install()
    try:
        mark = tracer.mark()
        tracer.timed("read", field.row)(PI)
    finally:
        tracer.uninstall()
    assert tracer.summary(mark)["inverse.rows_solved"] == 1


def test_traced_forward_solve_fills_forward_spans(tracing):
    # forward_solve reaches eigenvalues through its module global
    tracer = tracing.Tracer()
    tracer.install()
    try:
        forward.forward_solve(sample_potential(np.cos), PI / 3, 16)
    finally:
        tracer.uninstall()
    layer = tracer.summary((0, Counter()))
    assert layer["forward.eigenvalues_s"] > 0.0
    # the norming constants come from eigenvalues' own Newton sweeps, so
    # forward_solve no longer calls norming_constants
    assert layer["forward.norming_constants_s"] == 0.0


def test_benchmark_checks_accept_the_inverse_outputs(workloads):
    # the inverse workloads' reads and checks: F at arbitrary points, P rows
    # at every 16th grid node, q, the angle, condition_max and the spread
    ex6 = roundtrip.inverse_pipeline(workloads.ex6_data(workloads.EX6_COUNT))
    verdict = workloads.check_ex6(workloads.read_inverse(ex6, with_kernels=True))
    assert verdict.failures == []
    cos = workloads.load_cos_data()
    verdict = workloads.check_cos_inverse(workloads.read_inverse(roundtrip.inverse_pipeline(cos)),
                                          cos.beta)
    assert verdict.failures == []


def test_traced_pipeline_kernel_reads_pass_the_checks(tracing, workloads):
    # under the tracer the field is handed a counting wrapper of H that only
    # takes (x, t): a field that reads H's tables and never calls H gives F
    # at arbitrary points and the P rows that the benchmark's checks accept
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = roundtrip.inverse_pipeline(example6_data(40))
        view = workloads.read_inverse(result, with_kernels=True)
    finally:
        tracer.uninstall()
    assert isinstance(result.field.H, tracing.CountingF)
    assert workloads.check_ex6(view).failures == []
