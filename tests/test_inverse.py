import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.interpolate import CubicSpline

import invspec.inverse as inverse
from invspec.asymptotics import unperturbed_spectrum
from invspec.core import (
    PI,
    SpectralData,
    interpolant,
    mucos,
    musin,
)
from invspec.errors import AdmissibilityError, ConfigError, DataConsistencyError, DomainError
from invspec.inverse import (
    _H_GRID,
    _grid_pair_sum,
    _pair_sum,
    build_F,
    build_H,
    consistency_suite,
    recover_beta,
    recover_q,
    solve_gl,
    solve_kernel_field,
    validate,
)
from invspec.roundtrip import (
    example6_F,
    example6_P,
    example6_data,
    example6_q,
    inverse_pipeline,
)

BETA_STAR = PI - np.arctan(PI)  # q = 0 problem with a zero eigenvalue


# --- validation -----------------------------------------------------------------


def test_validate_reference_data_passes():
    rep = validate(example6_data(40), PI / 2)
    assert rep["status"] == "pass"
    assert abs(rep["c_fit"]) < 1e-10


def test_validate_negative_norming_fails():
    data = example6_data(20)
    a = data.norming.copy()
    a[3] = -1.0
    rep = validate(SpectralData(data.beta, data.mu, a), PI / 2)
    assert rep["hard_fail"]
    names = {c["name"]: c["status"] for c in rep["checks"]}
    assert names["norming-constants-positive"] == "fail"


def test_validate_duplicate_mu_fails():
    data = example6_data(20)
    mu = data.mu.copy()
    mu[5] = mu[4]
    rep = validate(SpectralData(data.beta, mu, data.norming), PI / 2)
    assert rep["hard_fail"]
    names = {c["name"]: c["status"] for c in rep["checks"]}
    assert names["eigenvalues-strictly-increasing"] == "fail"


def test_validate_integer_tail_fails():
    # integer lambda_n (a Dirichlet-type tail) sits 0.5 away from n + delta_n
    n = np.arange(1, 41, dtype=float)
    data = SpectralData(PI / 2, n * n, PI / (2 * n * n))
    rep = validate(data, PI / 2)
    assert rep["hard_fail"]
    names = {c["name"]: c["status"] for c in rep["checks"]}
    assert names["tail-tracks-unperturbed-order"] == "fail"


def test_validate_needs_enough_data():
    with pytest.raises(ConfigError, match="got 8"):
        validate(example6_data(8), PI / 2)


# --- H kernel --------------------------------------------------------------------


def test_h_reference_closed_form():
    H = build_H(example6_data(40), PI / 2, 1000)
    ts = np.linspace(0.0, 2 * PI, 501)
    assert np.max(np.abs(H(ts) - (2 / PI) * np.cos(ts / 2))) < 1e-10


def test_h_identical_data_vanishes():
    sp = unperturbed_spectrum(PI / 3, 24)
    H = build_H(sp, PI / 3, 400)
    assert np.max(np.abs(H(np.linspace(0, 2 * PI, 200)))) < 1e-11


def test_h_accelerated_vs_direct_within_tail_bound(fwd_cos_64):
    data = fwd_cos_64.spectral_data()
    H = build_H(data, PI / 3, 2000)
    t = 1.0
    direct = H.eval_direct(t)
    assert abs(H(t) - direct) <= 2.0 * H.truncation_tail_bound(t) + 1e-12


def test_h_grid_fft_matches_direct_sum(fwd_cos_64):
    sp = unperturbed_spectrum(2 * PI / 3, 24)
    shifted = SpectralData(2 * PI / 3, sp.mu - 2.0, sp.norming)  # exact data of q = -2
    assert shifted.mu[0] < 0.0  # so the direct low-mode path is exercised too
    cases = [(fwd_cos_64.spectral_data(), PI / 3),
             (shifted, 2 * PI / 3),
             (example6_data(400), PI / 2)]
    for data, beta in cases:
        H = build_H(data, beta, 2000)
        terms = (H.mu_d, H.a_d, H.mu_b, H.a_b)
        assert np.max(np.abs(_grid_pair_sum(*terms) - _pair_sum(_H_GRID, *terms))) < 1e-10


def test_h_partial_halfint_fft_matches_loop():
    H = build_H(example6_data(40), PI / 2, 2000)
    s1, sc = H._partial_halfint()
    s1_ref = np.zeros_like(_H_GRID)
    sc_ref = np.zeros_like(_H_GRID)
    for om in np.arange(2, 2000) + 0.5:
        s1_ref += np.sin(om * _H_GRID) / om
        sc_ref += np.cos(om * _H_GRID) / (om * om)
    assert np.max(np.abs(s1 - s1_ref)) < 1e-12
    assert np.max(np.abs(sc - sc_ref)) < 1e-12


def test_h_uniform_cell_evaluation_matches_spline(fwd_cos_64):
    # the direct cell lookup and Horner evaluation reproduce the cubic spline
    # through the grid values, including just below each node, where the
    # computed cell index may fall one cell early
    rng = np.random.default_rng(7)
    t = np.concatenate([rng.uniform(0.0, 2 * PI, 2000), _H_GRID[:-1],
                        np.nextafter(_H_GRID[1:-1], 0.0), [0.0, 2 * PI - 1e-9]])
    for data, beta in ((example6_data(40), PI / 2), (fwd_cos_64.spectral_data(), PI / 3)):
        H = build_H(data, beta)
        vals = _grid_pair_sum(H.mu_d, H.a_d, H.mu_b, H.a_b) + H._tail_correction()
        assert np.max(np.abs(H(t) - CubicSpline(_H_GRID, vals)(t))) <= 1e-14


def test_h_branches_detected():
    sp = unperturbed_spectrum(BETA_STAR, 24)
    assert abs(sp.mu[0]) < 1e-12

    mu = sp.mu.copy()
    mu[0] = 0.03
    assert build_H(SpectralData(BETA_STAR, mu, sp.norming, 0.0), BETA_STAR, 200).branch \
        == "zero-in-unperturbed"

    data = example6_data(24)
    mu2 = data.mu.copy()
    mu2[0] = 0.0
    assert build_H(SpectralData(PI / 2, mu2, data.norming, 0.0), PI / 2, 200).branch \
        == "zero-in-data"

    a3 = sp.norming.copy()
    a3[0] *= 0.7
    assert build_H(SpectralData(BETA_STAR, sp.mu, a3, 0.0), BETA_STAR, 200).branch \
        == "zero-in-both"

    assert build_H(example6_data(24), PI / 2, 200).branch == "regular"


def test_h_zero_branch_is_limit_of_regular():
    # +eps / -eps perturbations of the zero eigenvalue carry huge constants of
    # opposite sign; their average extrapolates to the degenerate formula
    data = example6_data(24)
    mu0 = data.mu.copy()
    mu0[0] = 0.0
    H0 = build_H(SpectralData(PI / 2, mu0, data.norming, 0.0), PI / 2, 300)
    ts = np.linspace(0.1, 2 * PI - 0.1, 9)
    eps = 1e-6
    acc = np.zeros_like(ts)
    for s in (+eps, -eps):
        mu = data.mu.copy()
        mu[0] = s
        acc += build_H(SpectralData(PI / 2, mu, data.norming, 0.0), PI / 2, 300)(ts)
    assert np.max(np.abs(acc / 2.0 - H0(ts))) < 1e-9


def test_h_zero_in_both_gives_xt_kernel():
    sp = unperturbed_spectrum(BETA_STAR, 24)
    a3 = sp.norming.copy()
    a3[0] *= 0.7
    F = build_F(build_H(SpectralData(BETA_STAR, sp.mu, a3, 0.0), BETA_STAR, 400))
    coef = 1.0 / a3[0] - 1.0 / sp.norming[0]
    for x in (0.3, 1.1, 2.9):
        for t in (0.2, 0.9):
            assert float(F(x, t)) == pytest.approx(coef * x * t, abs=5e-8)


def test_h_needs_valid_truncation():
    with pytest.raises(ConfigError):
        build_H(example6_data(20), PI / 2, 4)


def test_h_refuses_to_drop_data():
    # a truncation shorter than the data would silently ignore the pairs past it
    with pytest.raises(ConfigError):
        build_H(example6_data(40), PI / 2, 20)


def test_h_rejects_arguments_outside_its_domain():
    H = _F_CACHE["F"].H
    for t in (-0.1, 2 * PI + 0.1, np.array([0.5, 2 * PI + 0.1]), np.nan):
        with pytest.raises(DomainError):
            H(t)
    # roundoff past either end is clipped, not refused
    assert H(-1e-13) == H(0.0)
    assert H(2 * PI + 1e-13) == H(2 * PI)


# --- F kernel ---------------------------------------------------------------------


def test_f_reference_closed_form():
    F = build_F(build_H(example6_data(40), PI / 2, 1000))
    xs = np.linspace(0.0, PI, 20)
    X, T = np.meshgrid(xs, xs)
    assert np.max(np.abs(F(X, T) - example6_F(X, T))) < 1e-10


def test_f_vanishes_with_h():
    sp = unperturbed_spectrum(PI / 3, 24)
    F = build_F(build_H(sp, PI / 3, 400))
    xs = np.linspace(0, PI, 30)
    X, T = np.meshgrid(xs, xs)
    assert np.max(np.abs(F(X, T))) < 1e-11


@given(st.floats(min_value=0.0, max_value=3.14), st.floats(min_value=0.0, max_value=3.14))
def test_f_symmetry(x, t):
    F = _F_CACHE["F"]
    assert float(F(x, t)) == float(F(t, x))  # identical expression both ways


def test_f_boundary_rows_vanish():
    F = _F_CACHE["F"]
    ts = np.linspace(0, PI, 40)
    assert np.max(np.abs(F(ts, np.zeros_like(ts)))) == 0.0
    assert np.max(np.abs(F(np.zeros_like(ts), ts))) == 0.0


def test_f_series_form_agreement(fwd_cos_64):
    # pairing form vs direct sine-product series at a few points
    data = fwd_cos_64.spectral_data()
    H = build_H(data, PI / 3, 800)
    F = build_F(H)
    base = unperturbed_spectrum(PI / 3, 800, delta=H.delta)
    lam_d = np.sqrt(H.mu_d)
    lam_b = np.sqrt(H.mu_b)
    for (x, t) in ((0.7, 0.4), (2.0, 1.1), (3.0, 2.6)):
        series = np.sum(
            np.sin(lam_d * x) * np.sin(lam_d * t) / (H.a_d * H.mu_d)
            - np.sin(lam_b * x) * np.sin(lam_b * t) / (H.a_b * H.mu_b))
        assert float(F(x, t)) == pytest.approx(float(series), abs=2e-4)


_F_CACHE = {}


def setup_module(module):
    _F_CACHE["F"] = build_F(build_H(example6_data(30), PI / 2, 400))


# --- integral-equation solve -------------------------------------------------------


def test_solve_gl_reference_rows(ex6_inverse):
    field = ex6_inverse.field
    for x in (PI / 2, PI / 4, 2.5, PI):
        row = field.row(float(x))
        assert np.max(np.abs(row.values - example6_P(x, row.nodes))) < 1e-8


def test_solve_gl_zero_kernel():
    sp = unperturbed_spectrum(PI / 3, 24)
    F = build_F(build_H(sp, PI / 3, 400))
    row = solve_gl(F, PI / 2)
    assert np.max(np.abs(row.values)) < 1e-11
    assert row.cond < 1.5


def test_solve_gl_offnode_residual():
    F = _F_CACHE["F"]
    x = 2.0
    row = solve_gl(F, x, 48)
    # independent interpolation of node values; residual of the equation at
    # off-node points stays within 10x the node (linear-system) residual floor
    from scipy.interpolate import CubicSpline
    interp = CubicSpline(np.concatenate([[0.0], row.nodes]),
                         np.concatenate([[0.0], row.values]))
    t_off = np.linspace(0.05, x - 0.05, 17)
    lhs = interp(t_off) + F(x, t_off)
    for j, t in enumerate(t_off):
        lhs[j] += float(np.dot(row.weights * row.values, F(row.nodes, t)))
    floor = max(row.lin_residual, 1e-9)
    assert np.max(np.abs(lhs)) <= 10.0 * floor


def test_solve_gl_domain_checks():
    F = _F_CACHE["F"]
    with pytest.raises(ConfigError):
        solve_gl(F, 0.0)
    with pytest.raises(ConfigError, match="n_quad=8"):
        solve_gl(F, 1.0, 8)


def _full_nystrom_matrix(row):
    F = row.F
    return np.eye(row.nodes.size) + F(row.nodes[:, None], row.nodes[None, :]) * row.weights[None, :]


def test_solve_gl_condition_is_one_norm_estimate(fwd_cos_64):
    # gecon bounds the 1-norm condition number from below, and is not far off
    F = build_F(build_H(fwd_cos_64.spectral_data(), PI / 3))
    for x in (0.4, 2.0, PI):
        row = solve_gl(F, x)
        exact = np.linalg.cond(_full_nystrom_matrix(row), 1)
        assert exact / 10.0 <= row.cond <= exact * (1.0 + 1e-12)


def test_solve_gl_matches_full_matrix_solve(fwd_cos_64):
    # the mirrored upper triangle and the LU solve give the values that the
    # fully evaluated matrix and np.linalg.solve give, bit for bit
    F = build_F(build_H(fwd_cos_64.spectral_data(), PI / 3))
    for x in (0.4, 2.0, PI):
        row = solve_gl(F, x)
        expected = np.linalg.solve(_full_nystrom_matrix(row), -F(x, row.nodes))
        assert np.array_equal(row.values, expected)


@pytest.mark.parametrize("case", ["cos", "example6"])
def test_row_diagonal_matches_extension(case, fwd_cos_64):
    # P(x,x) from the row's stored F(x, t_k) is the interpolant at t = x
    data = fwd_cos_64.spectral_data() if case == "cos" else example6_data(40)
    F = build_F(build_H(data, data.beta))
    for x in (0.4, 2.0, PI):
        row = solve_gl(F, x)
        assert abs(row.diag - row.extend([x])[0]) <= 1e-15


def test_solved_row_holds_no_kernel_buffer():
    # a cached row keeps n_quad-sized arrays, never a view into the row's
    # whole buffer of kernel values
    row = solve_gl(_F_CACHE["F"], 2.0)
    for arr in (row.nodes, row.weights, row.values, row.f):
        assert arr.base is None or arr.base.nbytes <= arr.nbytes


def _count_h_calls(monkeypatch) -> list:
    calls = []
    real = inverse.HFunction.__call__

    def counting(self, t):
        calls.append(np.size(t))
        return real(self, t)

    monkeypatch.setattr(inverse.HFunction, "__call__", counting)
    return calls


def test_solve_gl_evaluates_H_once(monkeypatch):
    F = _F_CACHE["F"]
    calls = _count_h_calls(monkeypatch)
    row = solve_gl(F, 2.0)
    n = row.nodes.size
    assert calls == [2 * (n * (n + 1) // 2 + n + 1)]


def test_diagonal_consumers_add_no_H_call(monkeypatch):
    calls = _count_h_calls(monkeypatch)
    field = solve_kernel_field(_F_CACHE["F"])
    assert len(calls) == field.x_nodes.size - 1
    calls.clear()
    recover_q(field)
    for x in field.x_nodes:
        field.diagonal_residual(x)
    assert calls == []


def test_pipeline_solves_192_rows(monkeypatch):
    # 128 field rows (x > 0 on the 129-node grid) and 64 consistency rows
    calls = []
    real = inverse.solve_gl

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(inverse, "solve_gl", counting)
    inverse_pipeline(example6_data(40))
    assert len(calls) == 192


def test_kernel_field_boundary_column(ex6_inverse):
    field = ex6_inverse.field
    for x in (0.5, 1.5, PI):
        assert abs(field.p_at(x, np.array([0.0]))[0]) <= 10.0 * field.row(x).lin_residual + 1e-14


def test_diagonal_identity_residual(ex6_inverse):
    field = ex6_inverse.field
    res = [abs(field.diagonal_residual(x)) for x in field.x_nodes]
    assert max(res) < 1e-6


def test_ill_posed_data_raises():
    # wildly inconsistent norming constants drive the system singular
    data = example6_data(24)
    a = data.norming.copy()
    a[:12] *= 1e-9
    bad = SpectralData(PI / 2, data.mu, a, 0.0)
    F = build_F(build_H(bad, PI / 2, 200))
    with pytest.raises(AdmissibilityError, match=r"condition estimate [\d.e+]+ at x=\d"):
        solve_kernel_field(F, np.linspace(0.0, PI, 17), 32)


# --- recovery ------------------------------------------------------------------------


def test_recover_q_reference(ex6_inverse):
    field = ex6_inverse.field
    xs = field.x_nodes
    mask = xs >= 0.05
    assert np.max(np.abs(ex6_inverse.q_hat.values[mask] - example6_q(xs[mask]))) < 1e-4


def test_recover_q_zero_kernel():
    sp = unperturbed_spectrum(PI / 3, 24)
    field = solve_kernel_field(build_F(build_H(sp, PI / 3, 400)),
                               np.linspace(0, PI, 33), 48)
    q = recover_q(field)
    assert np.max(np.abs(q.values)) < 1e-8


def test_recover_q_rejects_nonuniform_output_grid():
    # q carries trapezoid weights, so the field's x grid must be uniform
    sp = unperturbed_spectrum(PI / 3, 24)
    field = solve_kernel_field(build_F(build_H(sp, PI / 3, 400)),
                               np.linspace(0.0, PI, 33) ** 2 / PI, 48)
    with pytest.raises(ConfigError):
        recover_q(field)


def test_kernel_field_needs_five_nodes():
    # the five-node derivative stencil at pi reaches four nodes below it
    F = _F_CACHE["F"]
    with pytest.raises(ConfigError, match="x_nodes=4"):
        solve_kernel_field(F, np.linspace(0.0, PI, 4), 32)


def test_recover_q_integral_consistency(ex6_inverse):
    # running integral of q equals twice the kernel diagonal
    field = ex6_inverse.field
    q = ex6_inverse.q_hat
    qf = interpolant(q)
    from scipy.integrate import quad
    for x in (0.5, 1.5, 2.8, PI):
        val, _ = quad(qf, 0.0, x, limit=200)
        assert val == pytest.approx(2.0 * field.diag(x), abs=1e-6)


def test_kernel_field_solutions_zero_kernel():
    # zero kernel: phi and phi' are the free solutions on every branch of mu
    # (hyperbolic, zero, trigonometric), vectorized over mu
    sp = unperturbed_spectrum(PI / 3, 24)
    field = solve_kernel_field(build_F(build_H(sp, PI / 3, 400)),
                               np.linspace(0, PI, 33), 48)
    mus = np.array([-3.0, 0.0, 2.0, 40.0])
    for x in (0.0, 0.7, 2.0, PI):
        assert np.max(np.abs(field.phi(x, mus) - musin(mus, x))) < 1e-9
        assert np.max(np.abs(field.dphi(x, mus) - mucos(mus, x))) < 1e-9


def test_reconstruct_phi_satisfies_equation(ex6_inverse):
    # phi rebuilt through the kernel solves -phi'' + q phi = mu phi
    mu = 0.25
    n = 513
    xs = np.linspace(0.0, PI, n)
    step = xs[1] - xs[0]
    phi = np.array([ex6_inverse.field.phi(x, mu)[0] for x in xs])
    qv = example6_q(xs[1:-1])
    phixx = (phi[2:] - 2 * phi[1:-1] + phi[:-2]) / step**2
    resid = -phixx + (qv - mu) * phi[1:-1]
    assert np.max(np.abs(resid)) < 1e-4


def test_recover_beta_reference(ex6_inverse):
    br = ex6_inverse.beta_rec
    assert br.cot_beta_tilde == pytest.approx(1.0 / PI, abs=1e-6)
    assert br.beta_tilde == pytest.approx(np.pi / 2 - np.arctan(1.0 / PI), abs=1e-6)
    assert br.spread < 1e-4
    assert br.prediction_gap < 1e-3


def test_recover_beta_unperturbed_identity():
    beta = PI / 3
    sp = unperturbed_spectrum(beta, 24)
    field = solve_kernel_field(build_F(build_H(sp, beta, 400)),
                               np.linspace(0, PI, 65), 64)
    br = recover_beta(field, sp)
    assert br.beta_tilde == pytest.approx(beta, abs=1e-8)


def test_recover_beta_mismatched_field_raises(ex6_inverse):
    # evaluating the endpoint ratios of one reconstructed problem at another
    # problem's eigenvalues cannot give a constant; the guard must fire.
    # (Perturbing admissible data stays admissible - it belongs to some other
    # genuine problem - so only a true mismatch triggers this.)
    sp = unperturbed_spectrum(PI / 3, 24)
    foreign = SpectralData(PI / 2, sp.mu, sp.norming, 0.0)
    with pytest.raises(DataConsistencyError, match=r"index \d+, mu=[-\d.e+]+"):
        recover_beta(ex6_inverse.field, foreign)


def test_consistency_suite_reference(ex6_inverse):
    cons = ex6_inverse.consistency
    assert cons["diagonal_residual_max"] < 1e-9
    assert cons["parseval_defect"]["sin"] < 2e-3
    assert cons["gram_offdiag_max"] < 1e-5
    assert cons["condition_max"] < 10.0
    assert cons["branch"] == "regular"


def test_consistency_suite_unperturbed():
    sp = unperturbed_spectrum(PI / 3, 24)
    field = solve_kernel_field(build_F(build_H(sp, PI / 3, 400)),
                               np.linspace(0, PI, 65), 64)
    cons = consistency_suite(field, sp)
    assert cons["diagonal_residual_max"] < 1e-9
    assert cons["gram_offdiag_max"] < 1e-8
