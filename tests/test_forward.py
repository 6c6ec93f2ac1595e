import re
from math import factorial

import numpy as np
import pytest
from scipy.optimize import brentq

from invspec.core import (
    PI,
    GridFunction,
    Potential,
    as_angle,
    gauss_rule,
    interpolant,
    mucos,
    musin,
    sample_potential,
    trapezoid_grid,
)
from invspec.asymptotics import unperturbed_spectrum
from invspec.errors import ConfigError, DomainError, NumericsError
from invspec import forward
from invspec.forward import (
    characteristic,
    eigenvalues,
    expand,
    norming_constants,
)
from invspec.inverse import validate


def rk4_oracle(qf, mu, n_steps=20000):
    """Independent fixed-step classical Runge-Kutta integration."""
    h = PI / n_steps
    y = np.array([0.0, 1.0])

    def f(x, y):
        return np.array([y[1], (qf(x) - mu) * y[0]])

    x = 0.0
    out = [y.copy()]
    for _ in range(n_steps):
        k1 = f(x, y)
        k2 = f(x + h / 2, y + h / 2 * k1)
        k3 = f(x + h / 2, y + h / 2 * k2)
        k4 = f(x + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        x += h
        out.append(y.copy())
    return np.array(out)


def exact_characteristic(mu, pieces, beta):
    """Omega(mu) of a potential constant on consecutive (length, value)
    pieces, from the exact transfer matrix of each piece."""
    mu = np.asarray(mu, dtype=float)
    y, dy = np.zeros_like(mu), np.ones_like(mu)
    for h, value in pieces:
        m = mu - value
        k = np.sqrt(np.abs(m))
        safe_k = np.where(k > 0.0, k, 1.0)
        C = np.where(m > 0.0, np.cos(k * h), np.cosh(k * h))
        S = np.where(k > 0.0, np.where(m > 0.0, np.sin(k * h), np.sinh(k * h)) / safe_k, h)
        y, dy = C * y + S * dy, -m * S * y + C * dy
    return y * np.cos(beta) + dy * np.sin(beta)


def exact_eigenvalues(pieces, beta, count):
    """First zeros of exact_characteristic: a scan in z = sign(mu) sqrt|mu|,
    which starts below every eigenvalue, then brentq."""
    m_lo = min(v for _, v in pieces) - 1.0 / np.tan(beta) ** 2 - 1.0
    m_hi = (count + 3.0) ** 2 + max(v for _, v in pieces)

    def omega(z):
        return exact_characteristic(z * np.abs(z), pieces, beta)

    zs = np.arange(np.sign(m_lo) * np.sqrt(abs(m_lo)), np.sqrt(m_hi), 0.005)
    vals = omega(zs)
    cells = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)[:count]
    roots = np.array([brentq(lambda z: float(omega(np.array(z))), zs[i], zs[i + 1],
                             xtol=1e-15, rtol=4.0 * np.finfo(float).eps) for i in cells])
    return roots * np.abs(roots)


def constant_norming(mu, c):
    """a_n = integral of phi^2 for q = c, phi = sin(k x)/k or sinh(k x)/k."""
    k = np.sqrt(np.abs(mu - c))
    return np.where(mu > c, (PI / 2 - np.sin(2 * k * PI) / (4 * k)) / k ** 2,
                    (np.sinh(2 * k * PI) / (4 * k) - PI / 2) / k ** 2)


def sequential_products(M, dM):
    """Reference for the cell arithmetic: for stacked (mu, cell, 2, 2)
    matrices, the identity and the products M_j ... M_0 for every cell j, one
    np.matmul per cell, with their mu-derivatives by the product rule."""
    P, dP = np.broadcast_to(np.eye(2), M[:, 0].shape), np.zeros_like(M[:, 0])
    out, d_out = [P], [dP]
    for j in range(M.shape[1]):
        P, dP = M[:, j] @ P, dM[:, j] @ P + M[:, j] @ dP
        out.append(P)
        d_out.append(dP)
    return np.stack(out, axis=1), np.stack(d_out, axis=1)


def as_stack(entries):
    """(m00, m01, m10, m11) arrays -> one array of 2x2 matrices."""
    m00, m01, m10, m11 = entries
    return np.stack([np.stack([m00, m01], axis=-1), np.stack([m10, m11], axis=-1)], axis=-2)


def interior_zero_counts(sol):
    """Sign changes of each phi_n strictly inside (0, pi), on TRACE_NODES uniform points."""
    phi, _ = sol.eigenfunctions(np.linspace(0.0, PI, forward.TRACE_NODES))
    v = phi[:, 1:-1]
    return list(np.sum(v[:, :-1] * v[:, 1:] < 0.0, axis=1))


def solution_on_trace_grid(q, mu):
    """x, phi and phi' for one mu on the uniform grid of TRACE_NODES points."""
    x = np.linspace(0.0, PI, forward.TRACE_NODES)
    phi, dphi = forward._solution(forward._Cells(q), np.array([mu]), x)
    return x, phi[0], dphi[0]


# --- solutions phi(x, mu) ---------------------------------------------------------


def test_shoot_free_particle(q_zero):
    lam = 3.0
    x, phi, dphi = solution_on_trace_grid(q_zero, lam**2)
    assert np.max(np.abs(phi - np.sin(lam * x) / lam)) < 1e-10
    assert phi[0] == 0.0 and dphi[0] == 1.0


def test_shoot_constant_shift():
    q1 = sample_potential(lambda x: np.ones_like(x))
    lam = 2.0
    x, phi, _ = solution_on_trace_grid(q1, 1.0 + lam**2)
    assert np.max(np.abs(phi - np.sin(lam * x) / lam)) < 1e-10


def test_shoot_matches_independent_rk4(q_cos):
    x, phi, _ = solution_on_trace_grid(q_cos, 4.0)
    per_cell = 8  # oracle step = trace spacing / 8, so every 8th point aligns
    oracle = rk4_oracle(interpolant(q_cos), 4.0, n_steps=per_cell * (x.size - 1))
    assert np.max(np.abs(phi - oracle[::per_cell, 0])) < 1e-8


def test_shoot_rejects_huge_potential():
    q = sample_potential(lambda x: 2e6 * np.ones_like(x))
    with pytest.raises(ConfigError):
        solution_on_trace_grid(q, 1.0)


# --- characteristic ------------------------------------------------------------


def test_characteristic_zeros_free_particle(q_zero):
    for n in range(5):
        assert abs(characteristic(q_zero, PI / 2, (n + 0.5) ** 2)) < 1e-10


def test_characteristic_sign_root_oracle(q_zero):
    # root of tan(l pi) = -l tan(beta) in (0.5, 1) for beta = pi/3
    beta = PI / 3

    def g(l):
        return np.tan(l * np.pi) + l * np.tan(beta)

    lo, hi = 0.5 + 1e-9, 1.0 - 1e-9
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if g(lo) * g(mid) <= 0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    assert characteristic(q_zero, beta, (root - 0.01) ** 2) * \
        characteristic(q_zero, beta, (root + 0.01) ** 2) < 0


def test_characteristic_constant_sign_between_roots(q_cos):
    mus = eigenvalues(q_cos, PI / 3, 5)
    for i in range(4):
        probes = np.linspace(mus[i] + 0.05, mus[i + 1] - 0.05, 7)
        vals = characteristic(q_cos, PI / 3, probes)
        assert np.all(vals > 0) or np.all(vals < 0)


# --- eigenvalues ----------------------------------------------------------------


def test_eigenvalues_free_particle(fwd_zero_64):
    mus = fwd_zero_64.records.mu
    expect = (np.arange(64) + 0.5) ** 2
    assert np.max(np.abs(mus - expect)) < 1e-9


def test_eigenvalues_constant_shift(q_zero):
    base = eigenvalues(q_zero, PI / 2, 6)
    q1 = sample_potential(lambda x: np.full_like(x, 0.7))
    shifted = eigenvalues(q1, PI / 2, 6)
    assert np.max(np.abs(shifted - base - 0.7)) < 1e-8


@pytest.mark.parametrize("N", [2.5, 3.0, "3", None, True, 0, -2, np.int64(0)],
                         ids=["2.5", "3.0", "str", "None", "True", "0", "-2", "int64-0"])
def test_eigenvalues_refuse_a_count_that_is_not_a_positive_integer(q_cos, N, monkeypatch):
    # refused before any cell is built; 2.5 once escaped as a TypeError from
    # a slice inside the cells
    def no_cells(*args, **kwargs):
        raise AssertionError("cells built before N was checked")

    monkeypatch.setattr(forward, "_Cells", no_cells)
    with pytest.raises(ConfigError, match="N=.* is not an integer of at least 1"):
        eigenvalues(q_cos, 1.0, N)


def test_eigenvalues_take_a_numpy_integer_count(q_cos):
    assert eigenvalues(q_cos, 1.0, np.int64(3)).tobytes() == eigenvalues(q_cos, 1.0, 3).tobytes()


def test_eigenvalues_self_convergence(q_cos):
    mus = eigenvalues(q_cos, PI / 3, 8)
    # recompute each root by bisection on the characteristic at tighter output
    for n in (0, 4, 7):
        lo, hi = mus[n] - 1e-4, mus[n] + 1e-4
        flo = characteristic(q_cos, PI / 3, lo)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            fm = characteristic(q_cos, PI / 3, mid)
            if np.sign(fm) == np.sign(flo):
                lo, flo = mid, fm
            else:
                hi = mid
        assert mus[n] == pytest.approx(0.5 * (lo + hi), abs=1e-7)


def test_eigenvalues_windows_invariant(fwd_cos_64):
    data = fwd_cos_64.spectral_data()
    ns = np.arange(2, 64)
    om = fwd_cos_64.delta.omega(ns)
    lam = np.sqrt(data.mu[2:])
    assert np.max(np.abs(lam - om)) < 0.45


def test_eigenvalues_negative_ground_state():
    q = sample_potential(lambda x: -3.0 * np.ones_like(x))
    mus = eigenvalues(q, PI / 2, 3)
    assert mus[0] == pytest.approx(0.25 - 3.0, abs=1e-8)
    assert mus[0] < 0


def test_oscillation_counts(fwd_cos_64):
    assert interior_zero_counts(fwd_cos_64) == list(range(64))


def test_constant_negative_eigenvalues_closed_form():
    # q = -2, beta = 2 pi/3: mu_0 lies below q (sinh branch), mu_1 between q and 0
    c, beta, N = -2.0, 2.0 * PI / 3.0, 16
    sol = forward.forward_solve(sample_potential(lambda x: np.full_like(x, c)), beta, N)
    mus = sol.records.mu
    a = sol.records.a
    mu_ref = exact_eigenvalues([(PI, c)], beta, N)
    assert mu_ref[0] < c < mu_ref[1] < 0.0 < mu_ref[2]
    assert np.max(np.abs(mus - mu_ref) / np.abs(mu_ref)) < 1e-10
    a_ref = constant_norming(mu_ref, c)
    assert np.max(np.abs(a - a_ref) / a_ref) < 1e-10


# the ends of (0, pi) as well as the middle; near pi the q = 0 ground state
# lies near -cot(beta)^2
ANGLES = [0.05, PI / 3, PI / 2, 2 * PI / 3, PI - 0.05]
ANGLE_IDS = ["0.05", "pi/3", "pi/2", "2pi/3", "pi-0.05"]


@pytest.mark.parametrize("beta", ANGLES, ids=ANGLE_IDS)
@pytest.mark.parametrize("c", [-50.0, -8.0, 8.0, 30.0, 100.0])
def test_constant_potential_with_large_mean(c, beta):
    # the roots are found for q - mean(q), which is zero here, and bracketed
    # by their Sturm counts at every angle
    N = 32
    sol = forward.forward_solve(sample_potential(lambda x: np.full_like(x, c)), beta, N)
    mus = sol.records.mu
    a = sol.records.a
    mu_ref = exact_eigenvalues([(PI, c)], beta, N)
    assert np.max(np.abs(mus - mu_ref) / (1.0 + np.abs(mu_ref))) < 1e-10
    a_ref = constant_norming(mu_ref, c)
    assert np.max(np.abs(a - a_ref) / a_ref) < 1e-10


def test_eigenvalues_l1_step_potential():
    # steps left | right at pi/2; the sampled potential's cubic spline rings
    # at the jump, so the bounds are the benchmark's, not roundoff, and wider
    # for the jump of 100
    cases = [((0.0, 2.0), [PI / 3], 16, 1e-2)]
    cases += [((0.0, 60.0), ANGLES, 32, 1e-2), ((60.0, 0.0), ANGLES, 32, 1e-2), ((-100.0, 0.0), ANGLES, 32, 5e-2)]
    for (left, right), angles, N, bound in cases:
        q = sample_potential(lambda x: np.where(x < PI / 2, left, right))
        for beta in angles:
            mu_ref = exact_eigenvalues([(PI / 2, left), (PI / 2, right)], beta, N)
            mus = eigenvalues(q, beta, N)
            assert np.max(np.abs(mus - mu_ref) / (1.0 + np.abs(mu_ref))) < bound, (left, right, beta)


@pytest.mark.parametrize("beta", ANGLES, ids=ANGLE_IDS)
@pytest.mark.parametrize("f", [lambda x: -40.0 + 20.0 * x / PI, lambda x: 30.0 + 10.0 * np.cos(3.0 * x),
                               lambda x: 200.0 * np.exp(-40.0 * (x - PI / 2) ** 2)],
                         ids=["ramp", "cos3x", "well"])
def test_eigenvalue_index_by_oscillation(f, beta):
    # no closed form: eigenfunction n has n interior zeros on the trace grid
    N = 32
    sol = forward.forward_solve(sample_potential(f), beta, N)
    assert interior_zero_counts(sol) == list(range(N))


def test_cells_follow_N(q_cos):
    # 512 cells up to N = 255, then twice as many each time N doubles; from
    # N = 1030 on, a cell of 1024 could hold two zeros and the edge count
    # would come up short, and at N = 1100 4096 cells keep h sqrt(mu - qbar)
    # <= pi/2 up to the bracket top
    for N, cells in ((16, 512), (255, 512), (256, 1024), (1100, 4096)):
        assert forward._Cells(q_cos, q_cos.mean, N).steps[0].size == cells
    N = 1100
    mus = eigenvalues(q_cos, PI / 3, N)
    assert mus.size == N and np.all(np.diff(mus) > 0.0)
    # q has mean zero: mu_n - mu_n^0 is O(1/n^2), about 0.06/n^2 here
    n = np.arange(100, N)
    assert np.max(n * n * np.abs(mus[n] - unperturbed_spectrum(PI / 3, N).mu[n])) < 0.1


def test_magnus_step_is_sixth_order(monkeypatch):
    # on q = exp x, halving the cells cuts the eigenvalue error 2^6 = 64
    # times; a fourth-order step cuts it 16 times
    q = sample_potential(np.exp)

    def mus(per):
        monkeypatch.setattr(forward, "CELLS_PER_INTERVAL", per)
        return eigenvalues(q, PI / 2, 16)

    ref = mus(16)
    err = [np.max(np.abs(mus(per) - ref)) for per in (1, 2)]
    assert err[0] > 40.0 * err[1]


def test_eigenvalues_match_fine_cells(q_cos, monkeypatch):
    # on 2 cells per sample interval the first 64 eigenvalues of cos x agree
    # with those on 64 cells per interval to roundoff (4.8e-13 with the
    # fourth-order step on 4 cells)
    mus = eigenvalues(q_cos, PI / 3, 64)
    monkeypatch.setattr(forward, "CELLS_PER_INTERVAL", 64)
    ref = eigenvalues(q_cos, PI / 3, 64)
    assert np.max(np.abs(mus - ref) / np.maximum(1.0, np.abs(ref))) < 1e-14


def test_eigenfunctions_follow_the_record_count(q_cos, monkeypatch):
    # the cells of the eigenfunctions are fine enough for mu_299: on the 512
    # cells of a solve without N, phi_299 was off by 5.7e-10
    sol = forward.forward_solve(q_cos, PI / 3, 300)
    mus = sol.records.mu
    x = np.linspace(0.0, PI, forward.TRACE_NODES)
    phi, _ = sol.eigenfunctions(x)
    monkeypatch.setattr(forward, "CELLS_PER_INTERVAL", 64)
    ref, _ = forward._solution(forward._Cells(q_cos), mus, x)
    assert np.max(np.abs(phi - ref) / np.max(np.abs(ref), axis=1, keepdims=True)) < 1e-11


@pytest.mark.parametrize("beta", [PI / 3, PI / 2, 2 * PI / 3, PI - 0.05], ids=["pi/3", "pi/2", "2pi/3", "pi-0.05"])
def test_count_matches_free_spectrum(q_zero, beta):
    mu0 = unperturbed_spectrum(beta, 40).mu
    mus = np.linspace(-1.0 / np.tan(beta) ** 2 - 1.0, 900.0, 2001)
    mus = mus[np.min(np.abs(mus[:, None] - mu0), axis=1) > 1e-9]
    counts, omega = forward._count(forward._Cells(q_zero), as_angle(beta), mus)
    assert np.array_equal(counts, np.sum(mu0 < mus[:, None], axis=1))
    assert np.allclose(omega, characteristic(q_zero, beta, mus), rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("mu", [-3.0, 0.3, 2500.0])
def test_sweep_derivative_matches_central_difference(q_cos, mu):
    # mu = -3 lies below q (s2 > 0 on every cell); at 0.3 s2 changes sign
    # along [0, pi] and some cells have |mu - qbar| < 1e-2; 2500 is far above q
    cells = forward._Cells(q_cos)
    beta = as_angle(PI / 3)
    y = forward._sweep(cells, np.array([mu]))
    d_omega = np.array([np.cos(beta.beta), np.sin(beta.beta)]) @ y[2:]
    eps = 1e-4 * np.sqrt(max(1.0, abs(mu)))
    fd = (characteristic(q_cos, beta, mu + eps) - characteristic(q_cos, beta, mu - eps)) / (2 * eps)
    assert d_omega[0] == pytest.approx(fd, rel=1e-7)


@pytest.fixture(scope="module")
def cell_sets():
    """100 samples of cos, 198 cells, so the tree pads odd widths with the
    identity; and 257 samples, 512 cells, a power of two."""
    return [forward._Cells(sample_potential(np.cos, n_nodes=n)) for n in (100, 257)]


@pytest.mark.parametrize("mu", [-3.0, 0.3, 2500.0])
def test_cell_products_match_sequential_matmul(cell_sets, mu):
    # one mu below q, one inside its range, one far above it
    def close(got, ref):
        scale = np.max(np.abs(ref), axis=(-2, -1) if ref.ndim == 4 else -1, keepdims=True)
        return np.max(np.abs(got - ref) / scale) < 1e-13

    mus = np.array([mu])
    eps = forward.COMPLEX_STEP
    for cells in cell_sets:
        M = as_stack(forward._propagators(cells.steps, mus))
        P, dP = sequential_products(M, as_stack(propagator_derivatives(cells.steps, mus)))
        *_, E = forward._levels(forward._propagators(cells.steps, mus + 1j * eps))
        E = as_stack(E)[:, None]
        assert close(E.real, P[:, -1:]) and close(E.imag / eps, dP[:, -1:])
        sweep = forward._sweep(cells, mus)
        assert close(sweep[:2, 0], P[0, -1, :, 1]) and close(sweep[2:, 0], dP[0, -1, :, 1])
        phi, dphi = forward._edge_values(cells, mus)
        assert close(np.stack([phi, dphi], axis=-1), P[:, :, :, 1])

        x = np.array([0.0, 0.5 * (cells.edges[100] + cells.edges[101]), PI])
        k = np.array([0, 100, len(cells.edges) - 2])
        partial = as_stack(forward._propagators(cells.magnus(cells.edges[k], x), mus))
        ref = (partial @ P[:, k, :, 1:])[..., 0]
        assert close(np.stack(forward._solution(cells, mus, x), axis=-1), ref)


def test_edge_scan_work(cell_sets, monkeypatch):
    # the up-sweep forms about one 2x2 product per cell and the down-sweep
    # only matrix-vector products; doubling (Hillis-Steele) formed about
    # log2(cells) products per cell, 9217 for 1024 cells
    mus = np.array([-3.0, 0.3, 2500.0])
    products, real_mul = [], forward._mul

    def counting_mul(b, a):
        products.append(b[0].size)
        return real_mul(b, a)

    monkeypatch.setattr(forward, "_mul", counting_mul)
    for cells in cell_sets:
        products.clear()
        forward._edge_values(cells, mus)
        assert 0 < sum(products) <= 2 * cells.steps[0].size * mus.size


def series_reference(s2):
    """C, S and dS/ds2 from core's closed forms; dS/ds2 by its Taylor series
    where (C - S)/(2 s2) would cancel."""
    C, S = mucos(-s2, 1.0), musin(-s2, 1.0)
    k = np.arange(12)
    taylor = np.polyval(((k + 1) / np.array([factorial(2 * j + 3) for j in k]))[::-1], s2)
    with np.errstate(divide="ignore", invalid="ignore"):
        dS = np.where(np.abs(s2) < 1e-2, taylor, (C - S) / (2.0 * s2))
    return C, S, dS


def series_with_derivative(s2):
    """C and S from _series at s2, and dS/ds2 by the complex step, Im S(s2 + i eps)/eps."""
    eps = forward.COMPLEX_STEP
    C, S = forward._series(s2)
    return C, S, forward._series(s2 + 1j * eps)[1].imag / eps


def propagator_derivatives(steps, mus):
    """mu-derivatives of the entries of _propagators, from the closed forms of
    series_reference: with Omega = [[a, b], [c, -a]], da/dmu = -a1, dc/dmu = -c1,
    ds2/dmu = -(2 a a1 + b c1) and dC/ds2 = S/2."""
    _, a0, a1, b, c0, c1 = steps
    a, c = a0 - a1 * mus[:, None], c0 - c1 * mus[:, None]
    C, S, dS = series_reference(a * a + b * c)
    ds2 = -(2.0 * a * a1 + b * c1)
    dC, dS = 0.5 * S * ds2, dS * ds2
    return dC + dS * a - S * a1, dS * b, dS * c - S * c1, dC - dS * a + S * a1


def test_series_matches_closed_forms():
    # each value alone, at its own degree and number of quarterings; s2 = 1e4
    # is quartered 7 times
    s2 = np.array([0.0, 1e-12, -1e-12, 1e-4, -1e-4, 0.3, -0.3, 1.0, -1.0, 5.0, -5.0, 30.0, -30.0, 1e4, -1e4])
    bound = np.where(np.abs(s2) <= 30.0, 1e-14, 1e-13)
    got = [np.concatenate(g) for g in zip(*(series_with_derivative(s2[i:i + 1]) for i in range(s2.size)))]
    for g, r in zip(got, series_reference(s2)):
        assert np.all(np.abs(g - r) <= bound * np.abs(r))


def test_series_quarters_each_entry_on_its_own():
    # batched with s2 = +-1e4, the entries up to |s2| = 30 keep the accuracy
    # they have alone: quartering the whole batch 7 times cost them up to
    # 1.2e-12 relative
    s2 = np.array([0.0, 1e-12, -1e-12, 1e-4, -1e-4, 0.3, -0.3, 1.0, -1.0, 5.0, -5.0, 30.0, -30.0, 1e4, -1e4])
    small = np.abs(s2) <= 30.0
    for g, r in zip(series_with_derivative(s2), series_reference(s2)):
        assert np.all(np.abs(g - r)[small] <= 1e-14 * np.abs(r)[small])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_series_non_finite_input(bad):
    # a non-finite s2 comes back non-finite, and the finite entries beside it
    # keep their values; _count refuses the non-finite Omega it leads to
    s2 = np.array([0.3, bad, -30.0])
    got = series_with_derivative(s2)
    for g, r in zip(got, series_with_derivative(s2[[0, 2]])):
        assert not np.isfinite(g[1]) and np.array_equal(g[[0, 2]], r)


def test_forward_errors_name_their_cause(q_zero, monkeypatch):
    beta = as_angle(PI / 2)
    newton = r"eigenvalue (\d+): Newton .* mu=(\S+) in bracket \[(\S+), (\S+)\]"
    with monkeypatch.context() as m:
        m.setattr(forward, "NEWTON_MAX", 1)
        for c in (0.0, 30.0):  # the message gives mu and the bracket for q = c
            with pytest.raises(NumericsError, match=newton) as err:
                eigenvalues(sample_potential(lambda x: np.full_like(x, c)), beta, 4)
            i, mu, lo, hi = (float(g) for g in re.search(newton, str(err.value)).groups())
            assert lo < mu < hi and lo < (i + 0.5) ** 2 + c < hi
        # end values of opposite sign and equal size put the secant point at
        # the midpoint; the brackets of 1/4 and 25/4 are centred on their
        # roots, which one step accepts; the open bracket is the caller's
        # index 1, around 9/4
        lo, hi = np.array([0.24, 1.5, 6.0]), np.array([0.26, 3.5, 6.5])
        cells = forward._Cells(q_zero)
        f_lo = np.sign(characteristic(q_zero, beta, lo))
        with pytest.raises(NumericsError, match=newton) as err:
            forward._newton(cells, beta, lo, hi, f_lo, -f_lo)
        i, mu, lo, hi = (float(g) for g in re.search(newton, str(err.value)).groups())
        assert i == 1 and 1.5 <= lo < mu < hi <= 3.5
    # roots one index too high: mu_n = (n + 3/2)^2 lies outside the bracket
    # that the Sturm count gives eigenvalue n
    bracket = r"eigenvalue 0: Newton left its bracket: mu={} outside \[(\S+), (\S+)\]"
    with monkeypatch.context() as m:
        m.setattr(forward, "_newton", lambda cells, beta, lo, *rest: ((np.arange(lo.size) + 1.5) ** 2, None))
        for c, mu in ((0.0, "2.25"), (30.0, "32.25")):  # q = 30 is solved as q = 0
            with pytest.raises(NumericsError, match=bracket.format(mu)) as err:
                eigenvalues(sample_potential(lambda x: np.full_like(x, c)), beta, 4)
            lo, hi = (float(g) for g in re.search(bracket.format(mu), str(err.value)).groups())
            assert lo < 0.25 + c < hi < 2.25 + c
    # edge values that never change sign: no count reaches N
    real_edge_values = forward._edge_values
    monkeypatch.setattr(forward, "_edge_values",
                        lambda cells, mus: tuple(np.abs(e) for e in real_edge_values(cells, mus)))
    # at beta = pi/2 the counts run from mu = -1 to 4^2 + 1, reported for q = 30
    with pytest.raises(NumericsError, match=r"eigenvalue count 0 below mu=29 and 0 below mu=47; "
                                            r"expected 0 and at least 4"):
        eigenvalues(sample_potential(lambda x: np.full_like(x, 30.0)), beta, 4)
    # counts that fall, and counts that jump by two at one mu, are refused;
    # for N = 2 the counts run over mu in [-1, 5]
    for counts, message in ((lambda mu: 4 * (mu > 1.0) - 2 * (mu > 3.0), r"decrease from 4 to 2 between mu="),
                            (lambda mu: 2 * (mu > 1.0), r"eigenvalues 0\.\.1 are not separable .* at mu=1$")):
        monkeypatch.setattr(forward, "_count", lambda cells, beta, mus: (counts(mus), np.ones(mus.size)))
        with pytest.raises(NumericsError, match=message):
            eigenvalues(q_zero, beta, 2)


# --- norming constants ------------------------------------------------------------


def test_norming_free_particle(fwd_zero_64):
    a = fwd_zero_64.records.a[:20]
    expect = np.pi / (2 * (np.arange(20) + 0.5) ** 2)
    assert np.max(np.abs(a - expect)) < 1e-10


def test_orthogonality(fwd_cos_64):
    xq, wq = gauss_rule(256, 0.0, PI)
    phi = fwd_cos_64.eigenfunctions(xq)[0][:30]
    G = (phi * wq) @ phi.T
    a = fwd_cos_64.records.a[:30]
    off = np.abs(G - np.diag(np.diag(G)))
    denom = np.sqrt(np.outer(a, a))
    assert np.max(off / denom) < 1e-8
    assert np.max(np.abs(np.diag(G) - a) / a) < 1e-10


def test_norming_rejects_non_eigenvalue(q_zero):
    # a real root has phi(pi) != 0 when sin(beta) != 0; feed a fake mu whose
    # phi(pi) vanishes (Dirichlet eigenvalue n=1 -> lambda = 1)
    with pytest.raises(NumericsError):
        norming_constants(q_zero, np.array([1.0]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_near_pi_is_a_numerics_error(q_cos):
    # near beta = pi the ground state lies near -cot(beta)^2 and phi grows like
    # exp(pi sqrt|mu|): at pi - 1e-3 the count's lowest point overflows, at
    # pi - 5e-3 only the norming constant of the ground state does; both are
    # refused, so numpy warns of neither
    beta = PI - 1e-3
    count = r"Omega\(mu\) is not finite at mu=(\S+) for beta=3\.14059265359"
    with pytest.raises(NumericsError, match=count) as err:
        eigenvalues(q_cos, beta, 16)
    assert float(re.search(count, str(err.value)).group(1)) < -1.0 / np.tan(beta) ** 2
    beta = PI - 5e-3
    mus = eigenvalues(q_cos, beta, 16)
    norming = r"eigenvalue 0: the norming constant overflows double precision; mu=(\S+)$"
    with pytest.raises(NumericsError, match=norming) as err:
        norming_constants(q_cos, mus)
    assert float(re.search(norming, str(err.value)).group(1)) == pytest.approx(-1.0 / np.tan(beta) ** 2,
                                                                              rel=1e-3)


@pytest.mark.parametrize("beta", [0.05, PI / 3, 2 * PI / 3, PI - 0.05], ids=["0.05", "pi/3", "2pi/3", "pi-0.05"])
@pytest.mark.parametrize("f", [np.cos, lambda x: np.full_like(x, -2.0), lambda x: np.where(x < PI / 2, 0.0, 2.0)],
                         ids=["cos", "const", "step"])
def test_fused_norming_matches_norming_constants(f, beta):
    # forward_solve reads a_n from the Newton sweep that accepts mu_n, one
    # step before the root, on the cells of q - mean(q)
    q = sample_potential(f)
    sol = forward.forward_solve(q, beta, 16)
    mus = sol.records.mu
    a = sol.records.a
    ref = norming_constants(q, mus)
    assert np.max(np.abs(a - ref) / ref) < 1e-11


def test_forward_solve_builds_one_set_of_cells(q_cos, monkeypatch):
    # one set of cells, and no sweep after the last Newton step
    built, real_cells = [], forward._Cells
    monkeypatch.setattr(forward, "_Cells", lambda *args: built.append(args) or real_cells(*args))
    monkeypatch.setattr(forward, "norming_constants", None)
    assert len(forward.forward_solve(q_cos, PI / 3, 16).records) == 16
    assert len(built) == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_forward_solve_refuses_overflowing_norming_constant(q_cos):
    # at pi - 5e-3 the eigenvalues are found, but a_0 overflows
    beta = PI - 5e-3
    with pytest.raises(NumericsError, match=r"eigenvalue 0: the norming constant overflows double precision; "
                                            r"mu=(\S+)$"):
        forward.forward_solve(q_cos, beta, 16)


# --- ForwardSolution ---------------------------------------------------------------


def test_spectrum_samples_no_eigenfunction(q_cos, monkeypatch):
    # mu_n, a_n and c_fit come from the sweeps alone; phi(x, mu) is sampled
    # only when eigenfunctions is called
    def refuse(*args):
        raise AssertionError("forward_solve sampled an eigenfunction")

    monkeypatch.setattr(forward, "_solution", refuse)
    data = forward.forward_solve(q_cos, PI / 3, 16).spectral_data()
    assert data.count == 16 and data.c_fit is not None


def test_eigenfunctions_are_the_solution_on_0_pi(q_cos):
    sol = forward.forward_solve(q_cos, PI / 3, 16)
    mus = sol.records.mu
    cells = forward._Cells(q_cos)
    for x in (np.linspace(0.0, PI, forward.TRACE_NODES), gauss_rule(256, 0.0, PI)[0]):
        phi, dphi = sol.eigenfunctions(x)
        ref_phi, ref_dphi = forward._solution(cells, mus, x)
        assert phi.shape == (16, x.size)
        assert np.array_equal(phi, ref_phi) and np.array_equal(dphi, ref_dphi)
    for x in (-1e-3, PI + 1e-3, np.nan):
        with pytest.raises(DomainError, match=r"outside \[0, pi\]"):
            sol.eigenfunctions(np.array([0.5, x]))


def test_spectral_data_carries_validates_drift_constant():
    # c = 30 is far enough from 0 that one tail fit in sqrt(mu) is biased
    # (29.99954); the refined fit is the one validate reports
    data = forward.forward_solve(sample_potential(lambda x: np.full_like(x, 30.0)), PI / 3, 64).spectral_data()
    assert data.c_fit == validate(data, data.beta)["c_fit"]
    assert abs(data.c_fit - 30.0) < 1e-9


def test_forward_solve_keeps_the_spectrum_as_one_read_only_record_array():
    q = sample_potential(np.cos)
    sol = forward.forward_solve(q, PI / 3, 16)
    records = sol.records
    assert isinstance(records, np.recarray) and records.dtype.names == ("mu", "a")
    assert not records.flags.writeable
    mus, a = eigenvalues(q, PI / 3, 16, norming=True)
    assert records.mu.tobytes() == mus.tobytes() and records.a.tobytes() == a.tobytes()
    for name in ("mu", "a"):
        with pytest.raises(ValueError, match="read-only"):
            records[name][0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            setattr(records, name, 0.0)
    # iterating still gives one object with .mu and .a per eigenpair
    assert [(r.mu, r.a) for r in records] == list(zip(mus, a))
    data = sol.spectral_data()
    assert np.array_equal(data.mu, mus) and np.array_equal(data.norming, a)
    assert not np.shares_memory(data.mu, records) and not np.shares_memory(data.norming, records)


# --- expansion -----------------------------------------------------------------


def test_expand_reproduces_eigenfunction(fwd_zero_64):
    grid = trapezoid_grid(np.linspace(0.0, PI, forward.TRACE_NODES))
    f = GridFunction(grid, fwd_zero_64.eigenfunctions(grid.nodes)[0][3])
    out = expand(f, fwd_zero_64, 6)
    assert np.max(np.abs(out.values - f.values)) < 1e-8


def test_expand_uniform_convergence_interior(fwd_zero_64):
    grid = trapezoid_grid(np.linspace(0.0, PI, 257))
    f = GridFunction(grid, grid.nodes.copy())
    mask = grid.nodes >= 0.3
    errs = []
    for N in (8, 16, 32, 64):
        out = expand(f, fwd_zero_64, N)
        errs.append(np.max(np.abs(out.values - f.values)[mask]))
    for a, b in zip(errs, errs[1:]):
        assert b <= 1.05 * a


def test_expand_vanishing_endpoint_converges_everywhere(fwd_zero_64):
    grid = trapezoid_grid(np.linspace(0.0, PI, 257))
    f = GridFunction(grid, np.sin(grid.nodes))
    errs = []
    for N in (8, 16, 32, 64):
        out = expand(f, fwd_zero_64, N)
        errs.append(np.max(np.abs(out.values - f.values)))
    for a, b in zip(errs, errs[1:]):
        assert b <= 1.05 * a


def test_expand_requires_enough_records(fwd_zero_64):
    grid = trapezoid_grid(np.linspace(0.0, PI, 64))
    f = GridFunction(grid, np.sin(grid.nodes))
    with pytest.raises(ConfigError, match="N=100 exceeds the 64 available records"):
        expand(f, fwd_zero_64, 100)


@pytest.mark.parametrize("N", [-3, 0, 2.5])
def test_expand_refuses_a_mode_count_below_one(fwd_zero_64, N):
    # a negative count would slice from the end and 0 expand over no mode
    grid = trapezoid_grid(np.linspace(0.0, PI, 64))
    f = GridFunction(grid, np.sin(grid.nodes))
    with pytest.raises(ConfigError, match=rf"N={N} is not an integer of at least 1"):
        expand(f, fwd_zero_64, N)



def test_expand_simpson_rule_matches_scipy_simpson():
    from scipy.integrate import simpson
    x, w = forward._SIMPSON_X, forward._SIMPSON_W
    assert x.size == forward.TRACE_NODES and x[0] == 0.0 and x[-1] == PI
    rng = np.random.default_rng(7)
    for y in (rng.normal(size=x.size), np.cos(7.0 * x) * np.exp(x), np.ones(x.size)):
        # bound: 1e-14 of the integral of |y|; scipy takes its steps from the
        # nodes, which differ from pi/2048 by roundoff
        assert abs(w @ y - simpson(y, x=x)) <= 1e-14 * (w @ np.abs(y))


@pytest.mark.parametrize("n_nodes", [2, 3])
def test_potential_on_two_or_three_nodes_is_its_line_or_parabola(n_nodes):
    # the interpolant of two or three samples is the line or the parabola
    # through them, so forward_solve and expand read the same potential as
    # from that polynomial sampled on 257 nodes; forward_solve cuts the coarse
    # one into 32 cells, not 512, so mu_n and a_n differ at the step's error
    poly = (lambda x: 1.0 - x / PI) if n_nodes == 2 else (lambda x: x * (PI - x))
    x = np.linspace(0.0, PI, n_nodes)
    coarse, fine = Potential(trapezoid_grid(x), poly(x)), sample_potential(poly)
    sol, ref = forward.forward_solve(coarse, PI / 3, 8), forward.forward_solve(fine, PI / 3, 8)
    # bound: 1e-6 relative; 32 fourth-order cells read 5.7e-9 in mu_n and
    # 5.4e-8 in a_n here
    for got, want in zip(sol.records, ref.records):
        assert got.mu == pytest.approx(want.mu, rel=1e-6)
        assert got.a == pytest.approx(want.a, rel=1e-6)
    # bound: 1e-12 of max|q|, the same coefficient integrals to roundoff
    at_x = expand(fine, ref, 8).values[np.isin(fine.grid.nodes, x)]
    assert np.max(np.abs(expand(coarse, ref, 8).values - at_x)) <= 1e-12 * np.max(np.abs(poly(fine.grid.nodes)))

# --- ODE residual of traces -----------------------------------------------------


def test_trace_satisfies_equation(q_cos):
    x, phi, _ = solution_on_trace_grid(q_cos, 7.0)
    h = x[1] - x[0]
    phixx = (phi[2:] - 2 * phi[1:-1] + phi[:-2]) / h**2
    resid = -phixx + (interpolant(q_cos)(x[1:-1]) - 7.0) * phi[1:-1]
    assert np.max(np.abs(resid)) < 5e-5  # second-order finite-difference floor
