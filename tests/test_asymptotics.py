import numpy as np
import pytest
from hypothesis import given, strategies as st

from invspec.asymptotics import (
    delta_sequence,
    drift_constant,
    extract_s,
    fit_c,
    fit_c_spread,
    refined_asymptotics_check,
    sin_halfint_closed,
    cos_halfint_closed,
    solve_delta,
    t_beta_closed_form,
    unperturbed_norming,
    unperturbed_spectrum,
    _solve_delta_array,
)
from invspec.core import (
    PI,
    Grid,
    GridFunction,
    SpectralData,
    as_angle,
    gauss_rule,
    integrate,
    sample_potential,
)
from invspec.errors import ConfigError, DomainError, NumericsError


def oracle_bisect_delta(beta: float, n: int) -> float:
    """Independent bisection on d - Phi(d) over [-1, 1]."""
    cb, sb = np.cos(beta), np.sin(beta)

    def phi(d):
        om = n + d
        return 1.0 - np.arccos(cb / np.sqrt(om * om * sb * sb + cb * cb)) / np.pi

    lo, hi = -1.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - phi(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_delta_half_for_right_angle():
    for n in range(2, 101):
        assert abs(solve_delta(PI / 2, n) - 0.5) <= 1e-14


def test_delta_matches_bisection_oracle():
    for n in (2, 5, 10, 37, 100):
        assert solve_delta(PI / 4, n) == pytest.approx(oracle_bisect_delta(PI / 4, n), abs=1e-10)


def test_delta_requires_n_at_least_two():
    with pytest.raises(ConfigError):
        solve_delta(PI / 4, 1)


@given(st.floats(min_value=0.05, max_value=3.09), st.integers(min_value=2, max_value=400))
def test_delta_in_bounds_with_small_residual(beta, n):
    beta = as_angle(beta)
    d = solve_delta(beta, n)
    assert -1.0 <= d <= 1.0
    cb, sb = np.cos(beta.beta), np.sin(beta.beta)
    om = n + d
    phi = 1.0 - np.arccos(cb / np.sqrt(om * om * sb * sb + cb * cb)) / np.pi
    assert abs(d - phi) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 10])
@pytest.mark.parametrize("eps", [1e-9, 1e-6])
def test_delta_at_extreme_angles_matches_closed_forms(eps, n):
    # with t = tan(beta) -> 0 the phase equation is linear in delta up to
    # O((n t)^3): delta_n = 1 - (n+1) t/(pi + t) near 0 and n t/(pi - t) with
    # t = tan(pi - beta) near pi; both agree with 50-digit references to
    # 3e-17 and 7e-16
    t = np.tan(eps)
    assert abs(solve_delta(eps, n) - (1.0 - (n + 1) * t / (PI + t))) <= 1e-15
    beta = PI - eps
    t = -np.tan(beta)  # tan(pi - beta) of the beta held in double precision
    assert abs(solve_delta(beta, n) - n * t / (PI - t)) <= 2e-15


def test_delta_tail_expansion_residual_bounded():
    beta = as_angle(PI / 4)
    ns = np.arange(10, 201)
    d = _solve_delta_array(beta, ns.astype(float))
    res = np.abs(d - 0.5 - beta.cot / (np.pi * (ns + 0.5))) * ns**2
    assert res.max() <= 10.0 * np.median(res) + 1e-9


@pytest.mark.parametrize("beta", [PI / 3, 2.5])
def test_delta_monotone_to_half_in_tail(beta):
    seq = delta_sequence(beta, 200)
    ns = np.arange(52, 201)
    tail = seq.omega(ns) - ns
    gaps = np.abs(tail - 0.5)
    assert np.all(np.diff(gaps) <= 1e-12)


# --- unperturbed spectrum ----------------------------------------------------


def test_unperturbed_right_angle_closed_form():
    sp = unperturbed_spectrum(PI / 2, 4)
    lam = np.sqrt(sp.mu)
    assert np.allclose(lam, [0.5, 1.5, 2.5, 3.5], atol=1e-12)
    assert np.allclose(sp.norming, [np.pi / (2 * (n + 0.5) ** 2) for n in range(4)], rtol=1e-13)


def test_unperturbed_low_mode_matches_tan_equation():
    # lambda_0 solves tan(l*pi) = -l*tan(beta) in (0, 1) for beta = pi/4
    sp = unperturbed_spectrum(PI / 4, 3)
    lam0 = np.sqrt(sp.mu[0])
    assert 0.0 < lam0 < 1.0

    def g(l):
        return np.tan(l * np.pi) + l * np.tan(PI / 4)

    lo, hi = 0.5 + 1e-9, 1.0 - 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(lo) * g(mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert lam0 == pytest.approx(0.5 * (lo + hi), abs=1e-10)


def test_unperturbed_norming_matches_quadrature():
    sp = unperturbed_spectrum(PI / 3, 8)
    grid = Grid(*gauss_rule(256, 0.0, PI))
    for mu, a in zip(sp.mu, sp.norming):
        lam = np.sqrt(mu)
        f = GridFunction(grid, (np.sin(lam * grid.nodes) / lam) ** 2)
        assert a == pytest.approx(integrate(f), abs=1e-12)


def test_unperturbed_norming_continuous_at_zero():
    eps = 1e-6
    avg = 0.5 * (unperturbed_norming(np.array([eps]))[0]
                 + unperturbed_norming(np.array([-eps]))[0])
    assert avg == pytest.approx(np.pi**3 / 3.0, rel=1e-10)


def test_unperturbed_zero_eigenvalue_angle():
    # tan(beta) = -pi makes mu_0 = 0 for q = 0
    beta_star = PI - np.arctan(PI)
    sp = unperturbed_spectrum(beta_star, 3)
    assert abs(sp.mu[0]) < 1e-12
    assert sp.norming[0] == pytest.approx(np.pi**3 / 3.0, rel=1e-9)


def test_unperturbed_negative_ground_state():
    # close to pi the ground eigenvalue dives below zero
    sp = unperturbed_spectrum(3.0, 3)
    assert sp.mu[0] < 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gap", [1e-3, 1e-5])
def test_delta_sequence_near_pi_names_the_overflow(gap):
    # the q = 0 ground state lies near -cot(beta)^2, where cosh(pi sqrt|mu|)
    # overflows; the refusal names the angle and the overflow, without warnings
    beta = PI - gap
    message = (rf"beta={beta:.12g}: the q = 0 characteristic function overflows double precision "
               rf"at mu=\S+ and below, and its ground state lies near -cot\(beta\)\^2 = ")
    with pytest.raises(NumericsError, match=message):
        delta_sequence(beta, 16)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_delta_sequence_near_pi_in_reach():
    # at pi - 5e-3 the ground state is still in reach: it solves
    # tanh(k pi) = -k tan(beta), so k = -cot(beta) once tanh(k pi) rounds to 1;
    # cosh(k pi) is near 1e272 there, finite, and no warning is raised
    beta = PI - 5e-3
    lam0, lam1 = delta_sequence(beta, 16).lam[:2]
    assert lam0 * abs(lam0) == pytest.approx(-1.0 / np.tan(beta) ** 2, rel=1e-12)
    assert 1.0 < lam1 < 1.5


@pytest.mark.parametrize("beta", [0.05, PI / 3, 1.0, PI - 0.05, PI - 5e-3])
def test_ground_lambda_matches_brentq_in_no_more_calls(beta, monkeypatch):
    from scipy.optimize import brentq
    import invspec.asymptotics as asymptotics
    angle = as_angle(beta)
    real, calls = asymptotics.characteristic_q0, []

    def counting(b, mu):
        calls.append(mu)
        return real(b, mu)

    monkeypatch.setattr(asymptotics, "characteristic_q0", counting)
    lam0 = asymptotics._ground_lambda(angle)
    ours = len(calls)
    calls.clear()
    s_lo = -np.sqrt(max(0.0, -angle.cot) ** 2 + 1.0)
    ref = brentq(lambda s: float(counting(angle, s * abs(s))), s_lo, 1.0, xtol=1e-15, rtol=1e-15)
    # bound: twice the tolerance both searches stop at, 1e-15 + 1e-15 |root|
    assert abs(lam0 - ref) <= 2.0 * (1e-15 + 1e-15 * abs(ref))
    assert ours <= len(calls)


@pytest.mark.parametrize("n", [-1, 41, [0, -1], np.array([3, 41])], ids=["-1", "n_max+1", "list", "array"])
def test_omega_refuses_an_index_outside_the_sequence(n):
    seq = delta_sequence(1.0, 40)
    with pytest.raises(ConfigError, match=r"index (-1|41) is outside 0..n_max = 40"):
        seq.omega(n)
    assert seq.omega(40) == seq.lam[40] and seq.omega(np.arange(0)).size == 0


# --- closed-form series -------------------------------------------------------


def brute_t_beta(beta, x, n_terms):
    beta = as_angle(beta)
    total = 0.0
    n0 = 2
    while n0 < n_terms + 2:
        ns = np.arange(n0, min(n0 + 200000, n_terms + 2), dtype=float)
        om = ns + _solve_delta_array(beta, ns)
        total += float(np.sum(np.sin(om * x) / om))
        n0 += 200000
    return total


def test_halfint_sin_closed_form_brute():
    x = 1.3
    ns = np.arange(2, 2_000_000, dtype=float) + 0.5
    brute = float(np.sum(np.sin(ns * x) / ns))
    assert sin_halfint_closed(x) == pytest.approx(brute, abs=1e-6)


def test_halfint_cos_closed_form_brute():
    for x in (0.0, 1.0, PI, 2 * PI):
        ns = np.arange(2, 400_000, dtype=float) + 0.5
        brute = float(np.sum(np.cos(ns * x) / ns**2))
        assert cos_halfint_closed(x) == pytest.approx(brute, abs=1e-5)


def test_t_beta_right_angle_is_pure_halfint():
    x = PI / 2
    expect = np.pi / 2 - 2 * np.sin(np.pi / 4) - (2.0 / 3.0) * np.sin(3 * np.pi / 4)
    assert t_beta_closed_form(PI / 2, x) == pytest.approx(expect, abs=1e-13)


def test_t_beta_against_partial_sums():
    # million-term partial sums at interior points
    for beta in (PI / 2, PI / 3):
        for x in (0.5, 1.0, PI, 5.0):
            assert t_beta_closed_form(beta, x) == pytest.approx(
                brute_t_beta(beta, x, 10**6), abs=2e-6)


def test_t_beta_domain():
    with pytest.raises(DomainError):
        t_beta_closed_form(PI / 2, 0.0)
    with pytest.raises(DomainError):
        t_beta_closed_form(PI / 2, 2 * PI)


# --- tail fits -----------------------------------------------------------------


def test_fit_c_zero_for_pure_tail():
    beta = as_angle(PI / 3)
    delta = delta_sequence(beta, 40)
    ns = np.arange(40)
    om = delta.omega(ns)
    data = SpectralData(beta.beta, om * np.abs(om), np.ones(40))
    c, _, l_seq = fit_c(data, delta)
    assert abs(c) < 1e-12
    assert np.max(np.abs(l_seq)) < 1e-12


def test_fit_c_recovers_constructed_constant():
    beta = as_angle(PI / 3)
    delta = delta_sequence(beta, 40)
    om = delta.omega(np.arange(2, 40))
    lam = om + 1.0 / (2.0 * om)
    mu = np.concatenate([delta.lam[:2] ** 2, lam**2])
    data = SpectralData(beta.beta, mu, np.ones(40))
    c, _, l_seq = fit_c(data, delta)
    assert c == pytest.approx(1.0, abs=1e-8)
    assert np.max(np.abs(l_seq)) < 1e-8
    assert fit_c_spread(data, delta) < 1e-8


@pytest.mark.parametrize("c_true", [0.0, 1.0])
def test_fit_c_recovers_third_order_coefficient(c_true):
    # lambda_n = omega_n + c/(2 omega_n) + kappa/omega_n^3 makes g_n exactly
    # c + 2 kappa/omega_n^2.  drift_constant hands on the kappa of its last
    # pass, that of the shifted data sqrt(lambda_n^2 - c), which is
    # kappa + c^2/8 up to terms in 1/omega^5; on drift-free data it is kappa
    beta = as_angle(PI / 3)
    delta = delta_sequence(beta, 64)
    om = delta.omega(np.arange(2, 64))
    lam = om + c_true / (2.0 * om) + 0.7 / om**3
    mu = np.concatenate([delta.lam[:2] ** 2, lam**2])
    data = SpectralData(beta.beta, mu, np.ones(64))
    c, kappa, _ = fit_c(data, delta)
    assert c == pytest.approx(c_true, abs=1e-10) and kappa == pytest.approx(0.7, abs=1e-8)
    if c_true == 0.0:
        c, kappa, _ = drift_constant(data, delta)
        assert c == pytest.approx(0.0, abs=1e-10) and kappa == pytest.approx(0.7, abs=1e-8)


@given(st.floats(min_value=-2.0, max_value=2.0))
def test_fit_c_hypothesis(c_true):
    beta = as_angle(1.1)
    delta = delta_sequence(beta, 30)
    om = delta.omega(np.arange(2, 30))
    lam = om + c_true / (2.0 * om)
    mu = np.concatenate([[0.01], [1.0], lam**2])
    data = SpectralData(beta.beta, mu, np.ones(30))
    c, _, _ = fit_c(data, delta)
    assert c == pytest.approx(c_true, abs=1e-7)


def test_fit_c_for_forward_cos_data(fwd_cos_64):
    data = fwd_cos_64.spectral_data()
    assert abs(data.c_fit) < 2e-2  # mean of cos over [0, pi] is 0


def test_fit_c_constant_potential_gives_mean():
    # lambda_n = sqrt(omega^2 + 1) = omega + 1/(2 omega) - 1/(8 omega^3) + ...
    from invspec.forward import forward_solve
    q1 = sample_potential(lambda x: np.ones_like(x))
    sol = forward_solve(q1, PI / 2, 24)
    data = sol.spectral_data()
    assert data.c_fit == pytest.approx(1.0, abs=1e-3)
    # the residual after removing the drift decays faster than 1/n
    ns = np.arange(2, 24)
    om = sol.delta.omega(ns)
    resid = np.abs(np.sqrt(data.mu[2:]) - om - 1.0 / (2.0 * om)) * ns
    assert resid[-1] < resid[0]
    assert resid[-1] < 1e-3


def test_unperturbed_roots_satisfy_characteristic():
    from invspec.core import mucos, musin
    from invspec.asymptotics import characteristic_q0
    for beta in (PI / 4, 2.0, 2.9):
        angle = as_angle(beta)
        sp = unperturbed_spectrum(beta, 12)
        vals = np.abs(characteristic_q0(angle, sp.mu))
        # hyperbolic-region components grow like cosh, so measure relative to
        # the characteristic's own magnitude scale
        scale = np.maximum(1.0, np.abs(musin(sp.mu, PI) * np.cos(beta))
                           + np.abs(mucos(sp.mu, PI) * np.sin(beta)))
        assert np.max(vals / scale) < 1e-12


def test_remainder_series_s_vanishes_for_reference_data():
    # the half-integer example carries the unperturbed norming constants from
    # n = 1 on, so its norming remainders s_n (n >= 2) are zero up to roundoff
    from invspec.roundtrip import example6_data
    data = example6_data(40)
    delta = delta_sequence(as_angle(data.beta), 40)
    s_seq = extract_s(data, delta)
    assert s_seq.size == 38
    assert np.max(np.abs(s_seq)) < 1e-12


# --- refined tail checks --------------------------------------------------------


def test_refined_check_zero_potential(fwd_zero_64):
    q = fwd_zero_64.q
    qp = GridFunction(q.grid, np.zeros(q.grid.n))
    data = fwd_zero_64.spectral_data()
    rep = refined_asymptotics_check(q, qp, PI / 2, data, n_lo=10, n_hi=40)
    assert np.max(np.abs(rep["lambda_residual"])) < 1e-9
    # with q' = 0 the refined eigenvalue remainder l_n vanishes identically,
    # so the residual is the tail defect itself
    assert rep["lambda_bounded"]


def test_refined_check_smooth_potential(fwd_parabola_41, q_parabola):
    qp = GridFunction(q_parabola.grid, PI - 2.0 * q_parabola.grid.nodes)
    data = fwd_parabola_41.spectral_data()
    rep = refined_asymptotics_check(q_parabola, qp, PI / 3, data, n_lo=10, n_hi=40)
    assert rep["lambda_bounded"]
    assert rep["norming_bounded"]


# --- refusals name their cause ----------------------------------------------------


def test_sequence_floors_name_the_count():
    with pytest.raises(ConfigError, match="n_max=1 is not an integer of at least 2"):
        delta_sequence(1.0, 1)
    with pytest.raises(ConfigError, match="N=2 is not an integer of at least 3"):
        unperturbed_spectrum(1.0, 2)


def test_fit_c_refusal_names_the_count():
    sp = unperturbed_spectrum(PI / 3, 11)
    with pytest.raises(ConfigError, match="fit_c needs at least 12 data points, got 11"):
        fit_c(sp, delta_sequence(PI / 3, 20))


def test_refined_check_refuses_n_hi_past_the_data(fwd_zero_64):
    q = fwd_zero_64.q
    qp = GridFunction(q.grid, np.zeros(q.grid.n))
    with pytest.raises(ConfigError, match="n_hi=64 beyond the 64 data points"):
        refined_asymptotics_check(q, qp, PI / 2, fwd_zero_64.spectral_data(), n_hi=64)


@pytest.mark.parametrize("n_lo, n_hi, message", [(-1, 20, "n_lo=-1 is not an integer of at least 0"),
                                                 (30, 20, "n_hi=20 is not an integer of at least 30")])
def test_refined_check_refuses_a_bad_index_range(fwd_zero_64, n_lo, n_hi, message):
    # n_lo = -1 would read mu[-1] against omega(-1); an empty range a median of nothing
    q = fwd_zero_64.q
    qp = GridFunction(q.grid, np.zeros(q.grid.n))
    with pytest.raises(ConfigError, match=message):
        refined_asymptotics_check(q, qp, PI / 2, fwd_zero_64.spectral_data(), n_lo=n_lo, n_hi=n_hi)


def test_omega_is_lambda_from_n_zero():
    # the sequence holds the q = 0 lambda_n from n = 0, so omega(0) and
    # omega(1) are the two low modes: at beta = 1 they are not 0.5214 and
    # 1.5194, read from the far end of the array
    seq = delta_sequence(1.0, 40)
    assert seq.omega(0) == pytest.approx(0.7297, abs=1e-4) and seq.omega(1) == pytest.approx(1.6201, abs=1e-4)
    assert np.array_equal(seq.omega(np.arange(41)) ** 2, unperturbed_spectrum(1.0, 41, seq).mu)


def test_refined_check_reads_the_low_modes(fwd_zero_64):
    # the exact q = 0 data at beta = 1: every lambda residual is roundoff,
    # n = 0 and 1 included
    q = fwd_zero_64.q
    qp = GridFunction(q.grid, np.zeros(q.grid.n))
    rep = refined_asymptotics_check(q, qp, 1.0, unperturbed_spectrum(1.0, 30), n_lo=0, n_hi=20)
    assert np.max(np.abs(rep["lambda_residual"])) < 1e-9
