import json
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import invspec.inverse as inverse
from invspec.asymptotics import (
    cos_halfint_closed,
    delta_sequence,
    fit_tail,
    shift_spectrum,
    sin_halfint_closed,
    unperturbed_spectrum,
)
from invspec.core import (
    PI,
    SpectralData,
    gauss_rule,
    interpolant,
    mucos,
    musin,
)
from invspec.errors import (
    AdmissibilityError,
    ConfigError,
    DataConsistencyError,
    DomainError,
    NumericsError,
)
from invspec.inverse import (
    H_GRID_SIZE,
    _halfint_expsum,
    _pair_sum,
    _table_nodes,
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
COS_DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "cos_beta60_n64.json"


def _stored_cos() -> SpectralData:
    """The forward data of q = cos x at beta = pi/3, N = 64, that the benchmark inverts."""
    rec = json.loads(COS_DATA.read_text())
    return SpectralData(rec["beta"], np.array(rec["mu"]), np.array(rec["a"]))


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


@pytest.mark.parametrize("c", [30.0, -30.0, 100.0])
def test_validate_measures_the_tail_against_the_shifted_reference(c):
    # exact data of q = c: the tail gap is taken after the drift shift, and
    # the refined drift fit returns c itself
    sp = unperturbed_spectrum(PI / 3, 64)
    rep = validate(SpectralData(sp.beta, sp.mu + c, sp.norming), PI / 3)
    assert not rep["hard_fail"]
    assert rep["c_fit"] == pytest.approx(c, abs=1e-9)


def test_validate_dropped_eigenvalue_still_fails():
    # with index 10 missing, no drift shift brings the tail back to n + delta_n
    # (the shifted gap reads 0.65)
    sp = unperturbed_spectrum(PI / 3, 64)
    keep = np.arange(64) != 10
    rep = validate(SpectralData(sp.beta, sp.mu[keep], sp.norming[keep]), PI / 3)
    assert rep["hard_fail"]
    names = {c["name"]: c["status"] for c in rep["checks"]}
    assert names["tail-tracks-unperturbed-order"] == "fail"


def test_validate_needs_enough_data():
    # twelve pairs is the floor of validation's tail fit
    with pytest.raises(ConfigError, match="got 8"):
        validate(example6_data(8), PI / 2)
    with pytest.raises(ConfigError, match="validation needs at least 12 data points, got 11"):
        validate(example6_data(11), PI / 2)


# --- H kernel --------------------------------------------------------------------


def test_h_reference_closed_form():
    # H up to its additive constant: the table reads 0 at t = 0
    H = build_H(example6_data(40), PI / 2, 1000)
    L = H_GRID_SIZE - 1
    ts = _table_nodes(L)
    H_t, dH_t = H.tables(L)
    assert np.max(np.abs(H_t - (2 / PI) * (np.cos(ts / 2) - 1))) < 1e-10
    assert np.max(np.abs(dH_t + (1 / PI) * np.sin(ts / 2))) < 1e-10


@pytest.mark.parametrize("x_nodes", [65, 129, 257])
def test_grid_F_matches_example6_closed_form(x_nodes):
    # F as the main equation factors it, on both grids, at every node pair;
    # the oracle's check reads F through the spline of the table only
    field = solve_kernel_field(build_H(example6_data(40), PI / 2), x_nodes)
    for g in field.grids:
        F = _F_on(field, g)
        t = np.arange(1, F.shape[0] + 1) * g.h
        assert np.max(np.abs(F - example6_F(t[:, None], t[None, :]))) < 1e-10


def test_h_identical_data_vanishes():
    sp = unperturbed_spectrum(PI / 3, 24)
    H = build_H(sp, PI / 3, 400)
    assert np.max(np.abs(H.tables(H_GRID_SIZE - 1)[0])) < 1e-11


def _direct_sum(H, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H's n_terms-term series and its derivative at t, in the table's
    convention: :func:`_pair_sum` on the pairs with mu < 1 on either side,
    w cos(lam t) (derivative -w lam sin(lam t)) for every other term, with
    w = 1/(a mu) for the data and -1/(a mu) for the base."""
    low = (H.mu_d < 1.0) | (H.mu_b < 1.0)
    hi = ~low
    lam = np.concatenate([np.sqrt(H.mu_d[hi]), np.sqrt(H.mu_b[hi])])
    w = np.concatenate([1.0 / (H.a_d[hi] * H.mu_d[hi]), -1.0 / (H.a_b[hi] * H.mu_b[hi])])
    lt = np.outer(t, lam)
    pair, dpair = _pair_sum(t, H.mu_d[low], H.a_d[low], H.mu_b[low], H.a_b[low])
    return pair + np.cos(lt) @ w, dpair - np.sin(lt) @ (w * lam)


def test_h_accelerated_vs_direct_within_tail_bound(fwd_cos_64):
    # the table, with its tail model, against the direct n_terms-term sum at
    # every table node; twice the model's sum of |gamma|/omega^2 past
    # n_terms bounds the true tail of the direct sum at every t
    data = fwd_cos_64.spectral_data()
    H = build_H(data, PI / 3, 2000)
    L = H_GRID_SIZE - 1
    direct = _direct_sum(H, _table_nodes(L))[0]
    tail_bound = 2.0 * abs(H.tail.gamma) / H.n_terms
    assert np.max(np.abs(H.tables(L)[0] - direct)) <= 2.0 * tail_bound + 1e-12


def test_h_grid_fft_matches_direct_sum(fwd_cos_64):
    # the data of q = -2 with the third-order tail kappa = 1e-3 from n = 2 on,
    # which the kernel fits and continues, so data and base terms differ
    # past the data too (the q = -2 data alone fit kappa = 0 exactly)
    sp = unperturbed_spectrum(2 * PI / 3, 24)
    om = np.sqrt(sp.mu[2:])
    mu = np.concatenate([sp.mu[:2], (om + 1e-3 / om**3) ** 2])
    shifted = SpectralData(2 * PI / 3, mu - 2.0, sp.norming)
    assert shifted.mu[0] < 0.0  # so the direct low-mode path is exercised too
    cases = [(fwd_cos_64.spectral_data(), PI / 3),
             (shifted, 2 * PI / 3),
             (example6_data(400), PI / 2)]
    L = H_GRID_SIZE - 1
    t = _table_nodes(L)
    om = np.arange(2, 2000) + 0.5
    cos_tail = np.zeros_like(t)  # the tail model's partial sums, term by term
    sin_tail = np.zeros_like(t)
    for w in om:
        cos_tail += np.cos(w * t) / (w * w)
        sin_tail += np.sin(w * t) / w
    for data, beta in cases:
        H = build_H(data, beta, 2000)
        if beta != PI / 2:  # the cos and q = -2 cases
            assert H.tail.kappa != 0.0
        tails = (cos_halfint_closed(t) - cos_tail, sin_tail - sin_halfint_closed(t))
        # the direct derivative rounds sin(lt) at lt up to 1.3e4 in terms of
        # size 1e3, so it is good to about 5e-8 only
        for table, pair, tol, tail in zip(H.tables(L), _direct_sum(H, t), (1e-10, 2e-7), tails):
            direct = pair + H.tail.gamma * tail
            assert np.max(np.abs(table - direct)) < tol


def test_h_partial_halfint_fft_matches_loop():
    # the partial sums of the tail model and of its derivative
    L = H_GRID_SIZE - 1
    t = _table_nodes(L)
    om = np.arange(2, 2000) + 0.5
    cos_ref = np.zeros_like(t)
    sin_ref = np.zeros_like(t)
    for w in om:
        cos_ref += np.cos(w * t) / (w * w)
        sin_ref += np.sin(w * t) / w
    sums = _halfint_expsum(om, np.stack([1.0 / (om * om), 1.0 / om]), L)
    assert np.max(np.abs(sums[0].real - cos_ref)) < 1e-12
    assert np.max(np.abs(sums[1].imag - sin_ref)) < 1e-11


def test_halfint_expsum_matches_direct_sums_off_the_bins():
    # frequencies off the half-integer bins need Taylor orders past 0; each
    # row of one, two and three against the direct sums of w exp(i lam t)
    om = np.concatenate([delta_sequence(1.0, 600).lam[2:], np.sqrt(np.arange(3, 600) ** 2 + 0.3)])
    w = np.random.default_rng(3).normal(size=om.size) / (om * om)
    for rows in (w[None, :], np.stack([w, w * om]), np.stack([w, w * om, w / om])):
        for L in (256, 512):
            direct = np.exp(1j * np.outer(_table_nodes(L), om)) @ rows.T
            sums = _halfint_expsum(om, rows, L)
            assert sums.shape == (len(rows), L + 1)
            for r in range(len(rows)):
                # bound: 1e-13 of sum |w_r|
                assert np.max(np.abs(sums[r] - direct[:, r])) <= 1e-13 * np.abs(rows[r]).sum()


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
    # a zero eigenvalue is the plain limit of +eps / -eps perturbations: each
    # table alone moves by eps t^4/(24 a_0) to leading order (1.94e-5 at the
    # last node here), and their average cancels that term
    data = example6_data(24)
    mu0 = data.mu.copy()
    mu0[0] = 0.0
    H0 = build_H(SpectralData(PI / 2, mu0, data.norming, 0.0), PI / 2, 300)
    L = H_GRID_SIZE - 1
    nodes = slice(8, L - 7, 62)  # nine table nodes from t = 0.098 to 2 pi - 0.098
    eps = 1e-6
    acc = np.zeros(9)
    for s in (+eps, -eps):
        mu = data.mu.copy()
        mu[0] = s
        table = build_H(SpectralData(PI / 2, mu, data.norming, 0.0), PI / 2, 300).tables(L)[0][nodes]
        assert np.max(np.abs(table - H0.tables(L)[0][nodes])) <= 25.0 * eps
        acc += table
    assert np.max(np.abs(acc / 2.0 - H0.tables(L)[0][nodes])) < 1e-9


def test_h_zero_in_both_gives_xt_kernel():
    sp = unperturbed_spectrum(BETA_STAR, 24)
    a3 = sp.norming.copy()
    a3[0] *= 0.7
    field = solve_kernel_field(build_H(SpectralData(BETA_STAR, sp.mu, a3, 0.0), BETA_STAR, 400))
    coef = 1.0 / a3[0] - 1.0 / sp.norming[0]
    for x in (0.3, 1.1, 2.9):
        for t in (0.2, 0.9):
            assert field.F(x, t) == pytest.approx(coef * x * t, abs=5e-8)


def test_pipeline_eigenvalue_near_zero_keeps_its_digits():
    # a data eigenvalue 1e-9 from zero on either side: the rows still match
    # the pivots to roundoff (an H constant of 1/(a_0 mu_0) left 9e-8), and
    # P(pi, pi) is the mean of the two sides at the zero eigenvalue itself
    data = example6_data(40)
    diag_pi = {}
    for mu0 in (1e-9, -1e-9, 0.0):
        mu = data.mu.copy()
        mu[0] = mu0
        inv = inverse_pipeline(SpectralData(data.beta, mu, data.norming))
        assert inv.consistency["diagonal_residual_max"] <= 1e-12
        diag_pi[mu0] = inv.field.diagonal[-1]
    assert abs(0.5 * (diag_pi[1e-9] + diag_pi[-1e-9]) - diag_pi[0.0]) <= 1e-12


def test_pipeline_base_eigenvalue_near_zero_keeps_its_digits():
    # the q = 0 spectrum just past the angle of its zero eigenvalue, a_0 halved
    sp = unperturbed_spectrum(BETA_STAR + 1e-9, 64)
    a = sp.norming.copy()
    a[0] *= 0.5
    inv = inverse_pipeline(SpectralData(sp.beta, sp.mu, a))
    assert inv.consistency["diagonal_residual_max"] <= 1e-12


def test_h_needs_valid_truncation():
    with pytest.raises(ConfigError, match="n_terms=4 is not an integer of at least 8"):
        build_H(example6_data(20), PI / 2, 4)


def test_h_of_five_pairs_fits_no_tail():
    # five pairs leave three indices n >= 2, too few for the tail fits, which
    # then give 0 and a finite table
    data = _stored_cos()
    H = build_H(SpectralData(data.beta, data.mu[:5], data.norming[:5]), data.beta)
    assert H.tail.gamma == 0.0 and H.tail.kappa == 0.0
    assert np.all(np.isfinite(H.tables(H_GRID_SIZE - 1)))


def test_h_of_shifted_data_is_the_pipelines():
    # the pipeline's H is build_H of the drift-free data with the pipeline's
    # one tail fit of the unshifted data, bit for bit
    data = _stored_cos()
    inv = inverse_pipeline(data)
    delta = delta_sequence(data.beta, 2000)
    H = build_H(shift_spectrum(data, inv.data.c_fit), data.beta, 2000, delta=delta,
                tail=fit_tail(data, delta))
    for ours, pipeline in zip(H.tables(512), inv.field.H.tables(512)):
        assert np.array_equal(ours, pipeline)


def test_pipeline_fits_the_tail_once(monkeypatch):
    # validate and the H build read the pipeline's one tail fit, so the
    # report's kappa and gamma are the kernel's; validate and build_H called
    # on their own each fit for themselves
    import invspec.asymptotics as asymptotics
    import invspec.roundtrip as roundtrip
    fits = []
    real = asymptotics.fit_tail

    def counting(data, delta):
        fits.append(data.count)
        return real(data, delta)

    for module in (asymptotics, inverse, roundtrip):
        monkeypatch.setattr(module, "fit_tail", counting)
    for data in (example6_data(400), _stored_cos()):
        fits.clear()
        inv = inverse_pipeline(data)
        assert fits == [data.count]
        assert inv.validation["kappa"] == inv.field.H.tail.kappa
        assert inv.validation["gamma"] == inv.field.H.tail.gamma
    fits.clear()
    validate(data, data.beta)
    build_H(data, data.beta)
    assert fits == [data.count, data.count]


def test_h_refuses_to_drop_data():
    # a truncation shorter than the data would silently ignore the pairs past it;
    # refused before a delta sequence is built or a tail fitted
    with pytest.raises(ConfigError, match="n_terms=20 is below the data count 40"):
        build_H(example6_data(40), PI / 2, 20)


def test_f_rejects_arguments_outside_its_domain():
    F = _FIELD["ex6"].F
    for x, t in ((-0.1, 0.5), (0.5, PI + 0.1), (np.array([0.5, PI + 0.1]), 0.5),
                 (np.nan, 0.5), (0.5, np.array([0.2, np.nan]))):
        with pytest.raises(DomainError):
            F(x, t)
    # roundoff past either end is clipped, not refused
    assert F(-1e-13, -1e-13) == F(0.0, 0.0)
    assert F(PI + 1e-13, PI + 1e-13) == F(PI, PI)


# --- F kernel ---------------------------------------------------------------------


def test_f_reference_closed_form():
    field = solve_kernel_field(build_H(example6_data(40), PI / 2, 1000))
    xs = np.linspace(0.0, PI, 20)
    X, T = np.meshgrid(xs, xs)
    assert np.max(np.abs(field.F(X, T) - example6_F(X, T))) < 1e-10


def test_f_vanishes_with_h():
    sp = unperturbed_spectrum(PI / 3, 24)
    field = solve_kernel_field(build_H(sp, PI / 3, 400))
    xs = np.linspace(0, PI, 30)
    X, T = np.meshgrid(xs, xs)
    assert np.max(np.abs(field.F(X, T))) < 1e-11


@given(st.floats(min_value=0.0, max_value=3.14), st.floats(min_value=0.0, max_value=3.14))
def test_f_symmetry(x, t):
    F = _FIELD["ex6"].F
    assert F(x, t) == F(t, x)  # identical expression both ways


def test_f_boundary_rows_vanish():
    F = _FIELD["ex6"].F
    ts = np.linspace(0, PI, 40)
    assert np.max(np.abs(F(ts, np.zeros_like(ts)))) == 0.0
    assert np.max(np.abs(F(np.zeros_like(ts), ts))) == 0.0


def test_f_series_form_agreement(fwd_cos_64):
    # pairing form vs direct sine-product series at a few points
    data = fwd_cos_64.spectral_data()
    H = build_H(data, PI / 3, 800)
    F = solve_kernel_field(H).F
    lam_d = np.sqrt(H.mu_d)
    lam_b = np.sqrt(H.mu_b)
    for (x, t) in ((0.7, 0.4), (2.0, 1.1), (3.0, 2.6)):
        series = np.sum(
            np.sin(lam_d * x) * np.sin(lam_d * t) / (H.a_d * H.mu_d)
            - np.sin(lam_b * x) * np.sin(lam_b * t) / (H.a_b * H.mu_b))
        assert float(F(x, t)) == pytest.approx(float(series), abs=2e-4)


_FIELD = {}


def setup_module(module):
    _FIELD["ex6"] = solve_kernel_field(build_H(example6_data(30), PI / 2, 400))


# --- integral-equation solve -------------------------------------------------------


def test_solve_gl_reference_rows(ex6_inverse):
    field = ex6_inverse.field
    for x in (PI / 2, PI / 4, field.x_nodes[102], PI):
        row = field.row(float(x))
        assert np.max(np.abs(row.values - example6_P(x, row.nodes))) < 1e-8


def test_solve_gl_zero_kernel():
    sp = unperturbed_spectrum(PI / 3, 24)
    field = solve_kernel_field(build_H(sp, PI / 3, 400))
    row = solve_gl(field, PI / 2)
    assert np.max(np.abs(row.values)) < 1e-11
    assert field.condition_max < 1.5


def test_solve_gl_offnode_residual():
    # an independent interpolation of the row's node values satisfies the
    # main equation at off-node points, its integral taken by Gauss rules on
    # either side of the kink at s = t
    from scipy.interpolate import CubicSpline
    field = _FIELD["ex6"]
    F = field.F
    x = float(field.x_nodes[82])
    row = field.row(x)
    interp = CubicSpline(row.nodes, row.values)
    resid = []
    for t in np.linspace(0.05, x - 0.05, 17):
        total = float(interp(t) + F(x, t))
        for lo, hi in ((0.0, t), (t, x)):
            s, w = gauss_rule(64, lo, hi)
            total += float(np.dot(w * interp(s), F(s, t)))
        resid.append(abs(total))
    assert max(resid) <= 1e-8


def test_solve_gl_domain_checks():
    field = _FIELD["ex6"]
    with pytest.raises(ConfigError):
        solve_gl(field, 0.0)
    with pytest.raises(ConfigError, match="x=1.0 is not a node of the 129-node x grid"):
        solve_gl(field, 1.0)


def _stride(field, g):
    """The step, in H table nodes, of one grid of the field."""
    return field.table_size // (2 * (g.rows.shape[0] - 1))


def _F_on(field, g):
    """F(t_i, t_j), i, j = 1..M, on one grid of the field, from the field's
    H table by the builder the factorization uses."""
    M = g.rows.shape[0] - 1
    return inverse._grid_F(field.H.tables(field.table_size)[0], M, _stride(field, g), np.empty((M, M)))


def _trapezoid_row_matrix(g, F, k):
    """Row k of one grid's trapezoid system, assembled densely from the
    grid's F: row j, column i is delta_ji + w_i h F(t_i, t_j), with the half
    weight at i = k."""
    w = np.full(k, g.h)
    w[-1] = g.h / 2.0
    return np.eye(k) + F[:k, :k] * w[None, :]


def test_solve_gl_condition_is_one_norm_estimate(fwd_cos_64):
    # the condition number taken from G^(-1), the factor's inverse times its
    # transpose, is that of I + h F in the 1-norm
    field = solve_kernel_field(build_H(fwd_cos_64.spectral_data(), PI / 3))
    for g in field.grids:
        F = _F_on(field, g)
        exact = np.linalg.cond(np.eye(F.shape[0]) + g.h * F, 1)
        assert exact / 10.0 <= g.cond <= exact * (1.0 + 1e-12)
    assert field.condition_max == max(g.cond for g in field.grids)


@pytest.mark.parametrize("M", [4, 8, 63, 64, 65, 99, 128, 198, 256, 512])
def test_invert_upper_is_trtri(M):
    # the recursive blocked inverse of the upper factor of a real G = I + h F
    # (stored cos data; uneven splits from 65 on) is dtrtri's to roundoff,
    # written into the caller's buffer, whose other triangle stays zero
    from scipy.linalg.lapack import dpotrf, dtrtri
    h = PI / M
    G = inverse._grid_F(build_H(_stored_cos(), PI / 3).tables(2 * M)[0], M, 1, np.empty((M, M)))
    G *= h
    G.flat[::M + 1] += 1.0
    _, info = dpotrf(G.T, lower=0, clean=1, overwrite_a=1)
    assert info == 0
    ref, info = dtrtri(G.T, lower=0)
    assert info == 0
    buffer = G.T
    inverse._invert_upper(buffer)
    assert np.shares_memory(buffer, G) and not np.any(np.triu(G, 1))
    assert np.max(np.abs(G - ref.T)) <= 1e-15 * np.max(np.abs(ref))


def test_condition_is_the_potri_value(fwd_cos_64):
    # G^(-1) from the blocked inverse of the factor then lauum equals
    # potri's to roundoff, not by construction; on this fixture the
    # condition number agrees with the one potri's inverse of the same factor
    # gives to 2 ulp (bit for bit with one BLAS thread; threaded, the 256-node
    # grid reads 1 ulp apart), both with lower=0 on G's Fortran view and the
    # sums taken on the same layout: the lower triangle of a C-order matrix
    from scipy.linalg.lapack import dpotrf, dpotri
    field = solve_kernel_field(build_H(fwd_cos_64.spectral_data(), PI / 3))
    for g in field.grids:
        G = _F_on(field, g)
        G *= g.h
        G.flat[::G.shape[0] + 1] += 1.0
        factor, info = dpotrf(G.T, lower=0, clean=1)
        inv, info = dpotri(factor, lower=0)
        inv = np.abs(np.tril(inv.T))
        assert inv.flags.c_contiguous
        cond = np.abs(G).sum(axis=0).max() * (inv.sum(axis=0) + inv.sum(axis=1) - np.diagonal(inv)).max()
        assert abs(g.cond - cond) <= 2.0 * np.spacing(cond)


def test_solve_gl_matches_full_matrix_solve(fwd_cos_64):
    # every row of each grid's rows matrix is the dense solve of its own
    # trapezoid row system, the field's row of weights is the Richardson
    # weights of the two grids' rows, and its row is their Richardson
    # combination
    field = solve_kernel_field(build_H(fwd_cos_64.spectral_data(), PI / 3))
    for g in field.grids:
        F = _F_on(field, g)
        M = F.shape[0]
        assert not np.any(g.rows[0]) and not np.any(g.rows[:, 0])
        assert not np.any(np.triu(g.rows, 1))
        for k in range(1, M + 1):
            expected = np.linalg.solve(_trapezoid_row_matrix(g, F, k), -F[:k, k - 1])
            assert np.max(np.abs(g.rows[k, 1:k + 1] - expected)) <= 1e-13 * np.max(np.abs(expected))
    coarse, fine = field.grids
    for k in range(1, field.x_nodes.size):
        p_c, p_f = coarse.rows[k, :k + 1], fine.rows[2 * k, :2 * k + 1]
        assert np.array_equal(field.weights[k, :2 * k + 1],
                              inverse._richardson_weights(p_c, p_f, coarse.h, 2 * k))
        assert not np.any(field.weights[k, 2 * k + 1:])
        if k in (16, 82, 128):
            row = solve_gl(field, field.x_nodes[k])
            assert np.array_equal(row.values, (4.0 * p_f[::2] - p_c) / 3.0)


@pytest.mark.parametrize("case", ["cos", "example6-400"])
def test_endpoint_slope_is_the_dense_solve(case):
    # each grid's slope P_x(pi, .), taken with G^(-1) while the grid is
    # factored, is the dense solve of row M's own trapezoid system with the
    # x-differentiated right-hand side
    data = _stored_cos() if case == "cos" else example6_data(400)
    field = solve_kernel_field(build_H(data, data.beta))
    slopes = field.H.tables(field.table_size)[1]
    for g in field.grids:
        F = _F_on(field, g)
        M = F.shape[0]
        j = np.arange(1, M + 1) * _stride(field, g)
        kk = M * _stride(field, g)
        rhs = -(0.5 * (slopes[kk - j] - slopes[kk + j]) + g.diagonal[M] * F[M - 1])
        expected = np.linalg.solve(_trapezoid_row_matrix(g, F, M), rhs)
        assert g.slope.shape == (M + 1,) and g.slope[0] == 0.0
        assert np.max(np.abs(g.slope[1:] - expected)) <= 1e-12 * np.max(np.abs(expected))


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns the memory a view reads."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


@pytest.mark.parametrize("x_nodes", [65, 129])
def test_field_keeps_one_matrix_per_grid(x_nodes):
    # each grid keeps its rows and vectors of at most M + 1 entries (no view
    # of a spent M x M buffer), and the field no dense matrix but the rows
    # and its weights
    field = solve_kernel_field(build_H(example6_data(40), PI / 2), x_nodes)
    for g in field.grids:
        M = g.rows.shape[0] - 1
        big = [name for name, v in vars(g).items()
               if isinstance(v, np.ndarray) and _owner(v).size > M + 1]
        assert big == ["rows"]
    held = [(name, v) for name, value in vars(field).items()
            for v in (value if isinstance(value, tuple) else (value,)) if isinstance(v, np.ndarray)]
    assert held
    assert [name for name, v in held if _owner(v).ndim > 1] == ["weights"]


def _nystrom_interpolant(row, F, t):
    """P(x, t) = -F(x, t) - int_0^x P(x, s) F(s, t) ds by the trapezoid rule
    on the row's nodes, with every kernel value evaluated afresh."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    w = np.full(row.nodes.size, row.nodes[1])
    w[[0, -1]] /= 2.0
    return -F(row.x, t) - (w * row.values) @ F(row.nodes[:, None], t[None, :])


@pytest.mark.parametrize("case", ["cos", "example6"])
def test_row_diagonal_matches_extension(case, fwd_cos_64):
    # P(x,x) from the pivots is the last entry of every row taken from the
    # inverse of the same factor, on each grid
    data = fwd_cos_64.spectral_data() if case == "cos" else example6_data(40)
    field = solve_kernel_field(build_H(data, data.beta))
    for g in field.grids:
        assert np.max(np.abs(np.diagonal(g.rows) - g.diagonal)) <= 1e-13


def test_solved_row_holds_no_kernel_buffer():
    # a cached row keeps arrays of its own size, never a view into the
    # field's grid or factor
    field = _FIELD["ex6"]
    row = solve_gl(field, field.x_nodes[64])
    for arr in (row.nodes, row.values):
        assert arr.base is None or arr.base.nbytes <= arr.nbytes


def _count_h_calls(monkeypatch) -> list:
    """Records F evaluated at points, and each FFT summation of an H table."""
    calls = []
    real_call, real_sum = inverse.KernelField.F, inverse._halfint_expsum

    def counting(self, x, t):
        calls.append(("points", np.broadcast(np.asarray(x), np.asarray(t)).size))
        return real_call(self, x, t)

    def counting_sum(lam, w, L):
        calls.append(("table", L))
        return real_sum(lam, w, L)

    monkeypatch.setattr(inverse.KernelField, "F", counting)
    monkeypatch.setattr(inverse, "_halfint_expsum", counting_sum)
    return calls


def test_solve_gl_evaluates_H_once(monkeypatch):
    # a 65-node field sums one H table of 257 nodes (the explicit terms and
    # the tail model's partial sum in one FFT pass); its rows read that table only
    H = build_H(example6_data(30), PI / 2, 400)
    calls = _count_h_calls(monkeypatch)
    field = solve_kernel_field(H, 65)
    assert calls == [("table", 256)]
    calls.clear()
    solve_gl(field, field.x_nodes[40])
    assert calls == []


def test_diagonal_consumers_add_no_H_call(monkeypatch):
    # the field sums the default grid's table of 513 nodes; the diagonal and
    # recover_q read it
    H = build_H(example6_data(30), PI / 2, 400)
    calls = _count_h_calls(monkeypatch)
    field = solve_kernel_field(H)
    assert calls == [("table", 512)]
    calls.clear()
    recover_q(field)
    field.diagonal[field.index(PI)]
    assert calls == []


def test_H_tables_follow_the_x_grid(monkeypatch):
    # build_H sums no table; a 65-node pipeline sums the 257-node tables of
    # H (for the field) and H' (for phi') in one FFT pass, and no table of
    # the default grid
    calls = _count_h_calls(monkeypatch)
    build_H(example6_data(30), PI / 2, 400)
    assert calls == []
    inverse_pipeline(example6_data(40), x_nodes=65)
    assert calls == [("table", 256)]


def test_pipeline_q_hat_shares_the_field_grid(ex6_inverse):
    # the x grid is built once, by the field, and q_hat carries it
    assert ex6_inverse.q_hat.grid is ex6_inverse.field.grid
    assert ex6_inverse.field.x_nodes is ex6_inverse.field.grid.nodes


def test_pipeline_solves_no_row(monkeypatch):
    # the field holds every row from its factors, and phi reads them as one
    # matrix: the pipeline asks for no KernelRow, and each field.row goes
    # through solve_gl once
    calls = []
    real = inverse.solve_gl

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(inverse, "solve_gl", counting)
    field = inverse_pipeline(example6_data(40)).field
    assert calls == []
    for x in (PI / 2, PI, PI / 2):
        field.row(x)
    assert calls == [PI / 2, PI, PI / 2]


def test_pipeline_builds_one_delta_sequence_and_no_H_spline(monkeypatch):
    # validate and the H build share the pipeline's delta sequence, and the
    # spline through the H table is built only when the field's F is called
    # at points
    import invspec.asymptotics as asymptotics
    import invspec.roundtrip as roundtrip
    deltas, splines = [], []
    real_delta, real_spline = asymptotics.delta_sequence, inverse.Spline

    def counting_delta(beta, n_max):
        deltas.append(n_max)
        return real_delta(beta, n_max)

    def counting_spline(x, y):
        splines.append(np.size(x))
        return real_spline(x, y)

    for module in (asymptotics, inverse, roundtrip):
        monkeypatch.setattr(module, "delta_sequence", counting_delta)
    monkeypatch.setattr(inverse, "Spline", counting_spline)
    data = example6_data(40)
    result = inverse_pipeline(data)
    assert deltas == [2000]
    assert H_GRID_SIZE not in splines  # recover_q's spline has the 129 x nodes
    result.field.F(1.0, 0.5)
    result.field.F(2.0, 0.5)
    assert splines.count(H_GRID_SIZE) == 1
    # validate given a tail builds no delta sequence; without one it builds
    # one, to n = count - 1, the last index its tail fit reads
    deltas.clear()
    validate(data, data.beta, tail=result.field.H.tail)
    assert deltas == []
    validate(data, data.beta)
    assert deltas == [39]


def test_non_finite_kernel_value_is_refused(monkeypatch):
    # a NaN from the H sums must not reach LAPACK, which would pass it through silently
    H = build_H(example6_data(30), PI / 2, 400)
    real = inverse._pair_sum

    def one_nan(*args, **kwargs):
        H_t, dH_t = real(*args, **kwargs)
        H_t[5] = np.nan
        return H_t, dH_t

    monkeypatch.setattr(inverse, "_pair_sum", one_nan)
    with pytest.raises(NumericsError, match=r"non-finite kernel value nan at t=0\.1227"):
        solve_kernel_field(H, 65)


@pytest.mark.parametrize("case", ["cos", "example6"])
def test_batched_phi_matches_per_node_formula(case, fwd_cos_64):
    # the one rebuild of phi, over every grid node as one matrix product,
    # against the per-node formula on each row: to roundoff, as a matrix
    # product and a matrix-vector product sum in different orders; at a
    # single node phi is that formula bit for bit
    data = fwd_cos_64.spectral_data() if case == "cos" else example6_data(40)
    field = solve_kernel_field(build_H(data, data.beta))
    mus = data.mu[:20]
    xs = field.x_nodes
    batched = field.phi(xs, mus)
    assert batched.shape == (mus.size, xs.size)
    assert not np.any(batched[:, 0])
    fine_h = field.grids[1].h
    for k, x in enumerate(xs[1:], 1):
        ref = (musin(mus, x) + musin(mus[:, None], np.arange(2 * k + 1) * fine_h)
               @ field.weights[k, :2 * k + 1])
        assert np.max(np.abs(batched[:, k] - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.array_equal(field.phi(float(x), mus), ref)
    if case == "example6":
        # recover_beta's x = pi column is the per-node formula bit for bit
        ks = data.mu[:8]  # the first min(8, max(5, count // 4)) eigenvalues
        k = xs.size - 1
        phi_pi = (musin(ks, PI) + musin(ks[:, None], np.arange(2 * k + 1) * fine_h)
                  @ field.weights[k, :2 * k + 1])
        expected = -field.dphi(ks) / phi_pi
        assert np.array_equal(recover_beta(field, data).ratios, expected)


def test_kernel_field_boundary_column(ex6_inverse):
    # F(., 0) = 0, so P(x, 0) = 0 on every row, and the natural interpolant
    # of the row at t = 0 vanishes with kernel values evaluated afresh
    field = ex6_inverse.field
    for x in (field.x_nodes[20], field.x_nodes[60], PI):
        row = field.row(x)
        assert row.values[0] == 0.0
        assert abs(_nystrom_interpolant(row, field.F, 0.0)[0]) <= 1e-14


def test_diagonal_identity_residual(ex6_inverse):
    # every row of both grids satisfies its own equation at t = x with
    # P(x, x) read from the pivots; each grid takes the residuals when it is
    # factored, against the H table's windows, and they are those of its rows
    # against F built densely, to roundoff
    field = ex6_inverse.field
    for g in field.grids:
        F = _F_on(field, g)
        y, fkk = g.rows[1:, 1:], np.diagonal(F)
        dense = np.abs(g.diagonal[1:] + fkk + g.h * (np.einsum("ij,ij->i", y, F) - 0.5 * np.diagonal(y) * fkk))
        assert np.max(np.abs(g.residuals - dense)) <= 1e-12
        assert g.residuals.size == g.rows.shape[0] - 1
    assert max(float(g.residuals.max()) for g in field.grids) < 1e-6


def test_factor_builds_F_once_per_grid(monkeypatch):
    # G is assembled from F once per grid, and the residuals read the H
    # table's windows with no second F
    calls = []
    real = inverse._grid_F

    def counting(table, M, stride, out):
        calls.append((M, stride))
        return real(table, M, stride, out)

    monkeypatch.setattr(inverse, "_grid_F", counting)
    solve_kernel_field(build_H(example6_data(40), PI / 2), 65)
    assert calls == [(64, 2), (128, 1)]


@pytest.mark.parametrize("case", ["cos", "example6-400"])
@pytest.mark.parametrize("x_nodes", [65, 129])
def test_rows_are_lower_triangular(case, x_nodes):
    # each grid's rows, formed from L^(-1) in the buffer's lower triangle, are
    # zero above the diagonal and in row and column 0 (P(0, .) = P(., 0) = 0)
    data = _stored_cos() if case == "cos" else example6_data(400)
    field = solve_kernel_field(build_H(data, data.beta), x_nodes)
    for g in field.grids:
        assert not np.any(np.triu(g.rows, 1))
        assert not np.any(g.rows[0]) and not np.any(g.rows[:, 0])
        assert np.all(np.diagonal(g.rows)[1:] != 0.0)


@pytest.mark.parametrize("case", ["cos", "example6-400"])
def test_factor_assembles_F_from_windows_of_the_table(case):
    # F, read as sliding windows of the H table, is the fancy-index build
    # 0.5 * (table[|i-j| s] - table[(i+j) s]) bit for bit on both grids; a
    # second factorization of the same table repeats the grid byte for byte,
    # and factoring in place leaves the read-only table as it found it
    data = _stored_cos() if case == "cos" else example6_data(400)
    field = solve_kernel_field(build_H(data, data.beta))
    tables = field.H.tables(field.table_size)
    table = tables[0]
    before = table.copy()
    for g in field.grids:
        M, stride = g.rows.shape[0] - 1, _stride(field, g)
        i = np.arange(1, M + 1) * stride
        expected = 0.5 * (table[np.abs(i[:, None] - i)] - table[i[:, None] + i])
        assert inverse._grid_F(table, M, stride, np.empty((M, M))).tobytes() == expected.tobytes()
        again = inverse._factor(*tables, M, stride)
        for name in ("rows", "diagonal", "slope", "residuals"):
            assert getattr(again, name).tobytes() == getattr(g, name).tobytes()
        assert again.cond == g.cond
    assert not table.flags.writeable
    assert table.tobytes() == before.tobytes()


def test_phi_refuses_an_off_grid_x_in_a_node_array(ex6_inverse):
    # the whole array is checked at once, and the first x off the grid is named
    field = ex6_inverse.field
    xs = field.x_nodes.copy()
    xs[40] += 1e-3
    xs[90] = 5.0
    with pytest.raises(ConfigError, match=rf"x={float(xs[40])!r} is not a node of the 129-node x grid"):
        field.phi(xs, [1.0, 4.0])
    with pytest.raises(ConfigError, match="x=nan is not a node"):
        field.phi(np.array([0.0, np.nan]), [1.0])


def test_phi_of_no_x_is_an_empty_matrix(ex6_inverse):
    # an empty array of x gives a (mu, 0) matrix, as any array of x gives (mu, x)
    out = ex6_inverse.field.phi(np.array([]), [1.0, 4.0])
    assert out.shape == (2, 0)


def test_ill_posed_data_raises():
    # wildly inconsistent norming constants drive the system singular
    data = example6_data(24)
    a = data.norming.copy()
    a[:12] *= 1e-9
    bad = SpectralData(PI / 2, data.mu, a, 0.0)
    H = build_H(bad, PI / 2, 200)
    with pytest.raises(AdmissibilityError, match=r"condition estimate [\d.e+]+ at x=\d"):
        solve_kernel_field(H, 17)


@pytest.mark.parametrize("index, x", [(3, 1.4726), (0, 2.3562), (10, 1.5953)])
def test_non_positive_data_refused_under_force(index, x):
    # a negated norming constant makes I + F_x indefinite: the Cholesky
    # factorization refuses the data, naming the x where the first leading
    # minor fails, even when validate's hard failure is forced past, so no
    # sqrt(a_m a_n) of a negative product is ever taken
    data = _stored_cos()
    a = data.norming.copy()
    a[index] = -a[index]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AdmissibilityError, match=rf"not positive definite at x={x}"):
            inverse_pipeline(SpectralData(data.beta, data.mu, a), force=True)


@pytest.mark.parametrize("defect, failed", [("negative-a2", "norming-constants-positive"),
                                            ("swapped-mu", "eigenvalues-strictly-increasing")])
def test_pipeline_refuses_hard_failures_before_the_kernel(defect, failed, monkeypatch):
    # without force the pipeline stops at validate, naming exactly the
    # failed checks, and builds no kernel
    import invspec.roundtrip as roundtrip
    data = example6_data(20)
    mu, a = data.mu.copy(), data.norming.copy()
    if defect == "negative-a2":
        a[2] = -0.5
    else:
        mu[[9, 10]] = mu[[10, 9]]
    monkeypatch.setattr(roundtrip, "build_H", lambda *args, **kw: pytest.fail("kernel built"))
    with pytest.raises(AdmissibilityError, match=rf"^inadmissible spectral data: {failed}$"):
        inverse_pipeline(SpectralData(data.beta, mu, a))


def test_negative_lapack_info_names_the_routine():
    with pytest.raises(NumericsError, match=r"trtri: illegal value in argument 3 at x=3\.1416"):
        inverse._check_info("trtri", -3, PI)
    inverse._check_info("trtri", 0, PI)  # zero and positive infos are the caller's to read
    inverse._check_info("potrf", 2, PI)


def test_small_positive_norming_constant_still_inverts():
    # a_0 x 0.01 is admissible data of another problem: positive, condition about 169
    data = _stored_cos()
    a = data.norming.copy()
    a[0] *= 0.01
    inv = inverse_pipeline(SpectralData(data.beta, data.mu, a))
    assert inv.field.condition_max < 1e3
    assert np.all(np.isfinite(inv.q_hat.values))


# --- recovery ------------------------------------------------------------------------


def test_stored_cos_inverse_reaches_third_order_tail():
    # eigenvalues past the data extend as (omega + kappa/omega^3)^2: the sup
    # error on [0.05, pi] falls from 1.07e-3 (extension by omega) to 2.5e-5
    inv = inverse_pipeline(_stored_cos())
    x = inv.q_hat.grid.nodes
    keep = x >= 0.05
    assert np.max(np.abs(inv.q_hat.values - np.cos(x))[keep]) <= 1e-4


def test_recover_q_reference(ex6_inverse):
    field = ex6_inverse.field
    xs = field.x_nodes
    mask = xs >= 0.05
    assert np.max(np.abs(ex6_inverse.q_hat.values[mask] - example6_q(xs[mask]))) < 1e-4


def test_recover_q_zero_kernel():
    sp = unperturbed_spectrum(PI / 3, 24)
    field = solve_kernel_field(build_H(sp, PI / 3, 400), 33)
    q = recover_q(field)
    assert np.max(np.abs(q.values)) < 1e-8


def test_kernel_field_needs_five_nodes():
    # five x nodes is the floor of the CLI contract
    with pytest.raises(ConfigError, match="x_nodes=4"):
        solve_kernel_field(_FIELD["ex6"].H, 4)


def test_recover_q_integral_consistency(ex6_inverse):
    # running integral of q equals twice the kernel diagonal
    field = ex6_inverse.field
    q = ex6_inverse.q_hat
    qf = interpolant(q)
    from scipy.integrate import quad
    for x in field.x_nodes[[20, 61, 114, 128]]:  # about 0.5, 1.5, 2.8 and pi
        val, _ = quad(qf, 0.0, x, limit=200)
        assert val == pytest.approx(2.0 * field.diagonal[field.index(x)], abs=1e-6)


def test_kernel_field_solutions_zero_kernel():
    # zero kernel: phi, and phi' at pi, are the free solutions on every
    # branch of mu (hyperbolic, zero, trigonometric), vectorized over mu
    sp = unperturbed_spectrum(PI / 3, 24)
    field = solve_kernel_field(build_H(sp, PI / 3, 400), 33)
    mus = np.array([-3.0, 0.0, 2.0, 40.0])
    for x in field.x_nodes[[0, 7, 21, 32]]:  # 0, about 0.7 and 2.0, and pi
        assert np.max(np.abs(field.phi(x, mus) - musin(mus, x))) < 1e-9
    assert np.max(np.abs(field.dphi(mus) - mucos(mus, PI))) < 1e-9


def test_reconstruct_phi_satisfies_equation(ex6_inverse):
    # phi rebuilt through the kernel solves -phi'' + q phi = mu phi; phi''
    # by the fourth-order central stencil on the field's grid
    mu = 0.25
    xs = ex6_inverse.field.x_nodes
    step = xs[1] - xs[0]
    phi = ex6_inverse.field.phi(xs, mu)[0]
    qv = example6_q(xs[2:-2])
    phixx = (-phi[4:] + 16 * phi[3:-1] - 30 * phi[2:-2] + 16 * phi[1:-3] - phi[:-4]) / (12 * step**2)
    resid = -phixx + (qv - mu) * phi[2:-2]
    assert np.max(np.abs(resid)) < 1e-4


def test_recover_beta_reference(ex6_inverse):
    br = ex6_inverse.beta_rec
    assert br.cot_beta_tilde == pytest.approx(1.0 / PI, abs=1e-6)
    assert br.beta_tilde == pytest.approx(np.pi / 2 - np.arctan(1.0 / PI), abs=1e-6)
    assert br.spread < 1e-4
    assert br.prediction_gap < 1e-3


@lru_cache(maxsize=None)
def _constant_inverse(c, beta):
    """inverse_pipeline on the exact data of q = c: the unperturbed pairs,
    every eigenvalue moved by c."""
    sp = unperturbed_spectrum(beta, 64)
    return inverse_pipeline(SpectralData(beta, sp.mu + c, sp.norming))


@pytest.mark.parametrize("beta", [PI / 2, PI / 3, 2 * PI / 3], ids=["pi/2", "pi/3", "2pi/3"])
@pytest.mark.parametrize("c", [1.0, -2.0, 0.3, 3.0, 5.0])
def test_constant_potential_inverts(c, beta):
    # the data of q = c carry the drift c and nothing else; the pipeline
    # shifts it out, inverts q = 0 and adds c back (worst measured 4.5e-10)
    inv = _constant_inverse(c, beta)
    x = inv.q_hat.grid.nodes
    assert np.max(np.abs(inv.q_hat.values[x >= 0.05] - c)) <= 1e-8
    assert inv.data.c_fit == pytest.approx(c, abs=1e-9)
    assert inv.beta_rec.beta_tilde == pytest.approx(beta, abs=1e-9)


@pytest.mark.parametrize("c", [-2.0, 5.0])
def test_dphi_at_pi_on_constant_data(c):
    # phi(x, mu) = sin(sqrt(mu - c) x)/sqrt(mu - c) for q = c, so the field
    # of the shifted data gives phi'(pi) = cos(sqrt(mu - c) pi) at mu - c
    for beta in (PI / 2, PI / 3, 2 * PI / 3):
        field = _constant_inverse(c, beta).field
        mus = unperturbed_spectrum(beta, 10).mu
        assert np.max(np.abs(field.dphi(mus) - mucos(mus, PI))) <= 1e-10


def test_recover_beta_unperturbed_identity():
    beta = PI / 3
    sp = unperturbed_spectrum(beta, 24)
    field = solve_kernel_field(build_H(sp, beta, 400), 65)
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
    field = solve_kernel_field(build_H(sp, PI / 3, 400), 65)
    cons = consistency_suite(field, sp)
    assert cons["diagonal_residual_max"] < 1e-9
    assert cons["gram_offdiag_max"] < 1e-8
