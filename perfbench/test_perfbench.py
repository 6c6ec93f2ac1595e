"""Tests of the benchmark's references, checks and operation counting.

Run from the repository root:  python3 -m pytest perfbench -q
"""
import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import calibrate  # noqa: E402
import references as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

PI = np.pi


# -- references --------------------------------------------------------------


def test_zero_potential_right_angle_gives_half_integers():
    mu = ref.eigenvalues([(PI, 0.0)], PI / 2.0, 30)
    assert np.allclose(mu, (np.arange(30) + 0.5) ** 2, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("beta", [PI / 3.0, 2.0 * PI / 3.0])
def test_constant_potential_shifts_the_spectrum(beta):
    base = ref.eigenvalues([(PI, 0.0)], beta, 12)
    assert np.allclose(ref.eigenvalues([(PI, -2.0)], beta, 12), base - 2.0, rtol=1e-13, atol=1e-13)
    # cutting one piece in two changes nothing
    assert np.allclose(ref.eigenvalues([(1.0, -2.0), (PI - 1.0, -2.0)], beta, 12), base - 2.0,
                       rtol=1e-13, atol=1e-13)


def test_negative_ground_state_at_obtuse_angle():
    mu = ref.eigenvalues([(PI, -2.0)], 2.0 * PI / 3.0, 3)
    assert mu[0] < -2.0 < mu[1] < 0.0
    # on the hyperbolic branch phi = sinh(s x)/s: tanh(s pi)/s = -tan(beta)
    s = np.sqrt(-2.0 - mu[0])
    assert np.tanh(s * PI) / s == pytest.approx(-np.tan(2.0 * PI / 3.0), rel=1e-12)


def test_constant_norming_matches_quadrature():
    mu = ref.eigenvalues([(PI, -2.0)], 2.0 * PI / 3.0, 5)
    for m, a in zip(mu, ref.constant_norming(mu, -2.0)):
        k = np.sqrt(abs(m + 2.0))
        phi = (lambda x: np.sinh(k * x) / k) if m < -2.0 else (lambda x: np.sin(k * x) / k)
        assert a == pytest.approx(quad(lambda x: phi(x) ** 2, 0.0, PI, epsabs=0, epsrel=1e-13)[0],
                                  rel=1e-11)


def test_ex6_closed_forms_agree():
    x = np.linspace(0.2, PI, 9)
    h = 1e-5
    diag = lambda y: ref.ex6_P(y, y)  # noqa: E731
    assert np.allclose(2.0 * (diag(x + h) - diag(x - h)) / (2.0 * h), ref.ex6_q(x), atol=1e-8)
    # P solves the Gel'fand-Levitan equation P(x,t) + F(x,t) + int_0^x P(x,s) F(s,t) ds = 0
    nodes, weights = leggauss(40)
    for xv in x:
        s = (nodes + 1.0) * xv / 2.0
        t = np.linspace(0.0, xv, 7)
        integral = (weights * xv / 2.0 * ref.ex6_P(xv, s)) @ ref.ex6_F(s[:, None], t[None, :])
        assert np.allclose(ref.ex6_P(xv, t) + ref.ex6_F(xv, t) + integral, 0.0, atol=1e-13)


# -- checks accept exact outputs and reject perturbed ones ---------------------


def _const_check():
    mu = ref.eigenvalues([(PI, -2.0)], 2.0 * PI / 3.0, wl.N_FORWARD)
    a = ref.constant_norming(mu, -2.0)
    check = lambda view: wl.check_exact_spectrum(view, mu, 1e-9, a, 1e-8)  # noqa: E731
    return check, mu, a


def test_exact_spectrum_check():
    check, mu, a = _const_check()
    assert check({"mu": mu, "a": a}).failures == []
    shifted = mu.copy()
    shifted[5] += 1e-6
    v = check({"mu": shifted, "a": a})
    assert v.failures and v.error == pytest.approx(1e-6 / (1.0 + abs(mu[5])))
    assert check({"mu": mu, "a": a * (1.0 + 1e-6)}).failures
    assert check({"mu": mu[:-1], "a": a[:-1]}).failures
    swapped = mu.copy()
    swapped[[3, 4]] = swapped[[4, 3]]
    assert check({"mu": swapped, "a": a}).failures
    assert check({"mu": mu, "a": -a}).failures


def test_tail_check():
    omega = np.sqrt(ref.eigenvalues([(PI, 0.0)], PI / 3.0, wl.N_FORWARD))
    n = np.arange(wl.N_FORWARD)
    mu = (omega + 0.3 / (n + 1.0) ** 2) ** 2
    a = np.ones_like(mu)
    assert wl.check_mean_zero_tail({"mu": mu, "a": a}, omega, 4).failures == []
    bad = mu.copy()
    bad[-1] = (omega[-1] + 0.05) ** 2
    assert wl.check_mean_zero_tail({"mu": bad, "a": a}, omega, 4).failures


def _ex6_view():
    x = np.linspace(0.0, PI, 129)
    fx = np.linspace(0.0, PI, 20)
    X, T = np.meshgrid(fx, fx)
    rows = []
    for xv in x[1::16]:
        nodes = (leggauss(96)[0] + 1.0) * xv / 2.0
        rows.append((xv, nodes, ref.ex6_P(xv, nodes)))
    return {"x": x, "q_hat": ref.ex6_q(x), "beta_tilde": PI / 2.0 - np.arctan(1.0 / PI),
            "cot_beta_tilde": 1.0 / PI, "condition_max": 2.0, "endpoint_spread": 1e-8,
            "F_x": fx, "F": ref.ex6_F(X, T), "P_rows": rows}


def test_ex6_check():
    view = _ex6_view()
    assert wl.check_ex6(view).failures == []
    for key, change in (("q_hat", lambda v: v * 1.001),
                        ("cot_beta_tilde", lambda v: v + 1e-5),
                        ("F", lambda v: v + 1e-9)):
        bad = dict(view, **{key: change(view[key])})
        assert wl.check_ex6(bad).failures, key
    x, nodes, values = view["P_rows"][3]
    bad_rows = list(view["P_rows"])
    bad_rows[3] = (x, nodes, values * (1.0 + 1e-6))
    assert wl.check_ex6(dict(view, P_rows=bad_rows)).failures


def test_cos_inverse_check():
    x = np.linspace(0.0, PI, 129)
    view = {"x": x, "q_hat": np.cos(x), "beta_tilde": PI / 3.0, "cot_beta_tilde": 1.0 / np.sqrt(3.0),
            "condition_max": 2.0, "endpoint_spread": 1e-4}
    assert wl.check_cos_inverse(view, PI / 3.0).failures == []
    assert wl.check_cos_inverse(dict(view, q_hat=1.1 * np.cos(x)), PI / 3.0).failures
    assert wl.check_cos_inverse(dict(view, beta_tilde=PI / 3.0 + 0.01), PI / 3.0).failures


# -- the run loop counts failed operations ---------------------------------------


BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def _run_with(monkeypatch, capsys, case, trace=0):
    monkeypatch.setitem(wl.WORKLOADS, "forward", lambda: [case])
    argv = ["--workload", "forward", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_rejected_output_counts_as_failed(monkeypatch, capsys):
    check, mu, a = _const_check()
    shifted = mu.copy()
    shifted[0] *= 1.0 + 1e-6
    case = wl.Case("const", "mu_rel_error", run=lambda: {"mu": shifted, "a": a},
                   read=lambda out: out, check=check, warm_up=lambda: None)
    result = _run_with(monkeypatch, capsys, case)
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 1, False)


def test_raising_operation_counts_as_failed(monkeypatch, capsys):
    def boom():
        raise RuntimeError("no result")

    check, _, _ = _const_check()
    case = wl.Case("const", "mu_rel_error", run=boom, read=lambda out: out, check=check,
                   warm_up=lambda: None)
    result = _run_with(monkeypatch, capsys, case)
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 1, True)


def test_exact_output_passes(monkeypatch, capsys):
    check, mu, a = _const_check()
    case = wl.Case("const", "mu_rel_error", run=lambda: {"mu": mu, "a": a},
                   read=lambda out: out, check=check, warm_up=lambda: None)
    result = _run_with(monkeypatch, capsys, case)
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 0, True)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}


def test_traced_run_reports_every_per_layer_metric(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    check, mu, a = _const_check()
    case = wl.Case("const", "mu_rel_error", run=lambda: {"mu": mu, "a": a},
                   read=lambda out: out, check=check, warm_up=lambda: None)
    result = _run_with(monkeypatch, capsys, case, trace=1)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["forward.eigenpairs"]["value"] == wl.N_FORWARD


class FixedSampler:
    """Stands in for calibrate.SpeedSampler with a probe of a fixed length."""

    PROBE_S = 0.25
    probes = [PROBE_S]
    overhead = 0.0

    def start(self):
        pass

    def stop(self):
        pass

    def calibrated(self, seconds):
        return seconds / self.PROBE_S


def test_pass_cal_is_pass_time_in_probe_times(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(calibrate, "SpeedSampler", FixedSampler)
    check, mu, a = _const_check()
    case = wl.Case("const", "mu_rel_error", run=lambda: {"mu": mu, "a": a},
                   read=lambda out: out, check=check, warm_up=lambda: None)
    metrics = _run_with(monkeypatch, capsys, case, trace=1)["metrics"]
    assert metrics["trace.pass_cal"]["value"] == pytest.approx(
        metrics["trace.pass_s"]["value"] / FixedSampler.PROBE_S, rel=1e-12)


def test_sampler_probes_during_a_call_and_stops():
    sampler = calibrate.SpeedSampler()
    sampler.start()
    t = time.perf_counter()
    while time.perf_counter() - t < 5.5 * calibrate.INTERVAL_S:
        pass
    sampler.stop()
    assert len(sampler.probes) >= 3
    assert sampler.overhead == pytest.approx(sum(sampler.probes), rel=0.5)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sampler.calibrated(1.0) == pytest.approx(1.0 / np.mean(sampler.probes))


def test_sampler_stops_when_the_call_raises(monkeypatch, capsys):
    def boom():
        t = time.perf_counter()
        while time.perf_counter() - t < 2.5 * calibrate.INTERVAL_S:
            pass
        raise RuntimeError("no result")

    check, _, _ = _const_check()
    case = wl.Case("const", "mu_rel_error", run=boom, read=lambda out: out, check=check,
                   warm_up=lambda: None)
    elapsed, calibrated, verdict = run.run_case(case, calibrate.SpeedSampler())
    assert verdict is None and calibrated > 0.0
    # the call's wall time less the handler's, which took a few ms
    assert 2.0 * calibrate.INTERVAL_S < elapsed < 2.5 * calibrate.INTERVAL_S
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
