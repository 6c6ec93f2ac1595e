import numpy as np
import pytest
from scipy.optimize import brentq

from invspec.core import (
    PI,
    GridFunction,
    RuleKind,
    as_angle,
    interpolant,
    make_grid,
    sample_potential,
)
from invspec.asymptotics import DeltaSequence, delta_sequence
from invspec.errors import ConfigError, NumericsError
from invspec import forward
from invspec.forward import (
    characteristic,
    eigenvalues,
    expand,
    norming_constants,
    shoot,
)


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
    z_lo = -np.sqrt(-(min(v for _, v in pieces) - 1.0 / np.tan(beta) ** 2 - 1.0))

    def omega(z):
        return exact_characteristic(z * np.abs(z), pieces, beta)

    zs = np.arange(z_lo, count + 3.0, 0.005)
    vals = omega(zs)
    cells = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)[:count]
    roots = np.array([brentq(lambda z: float(omega(np.array(z))), zs[i], zs[i + 1],
                             xtol=1e-15, rtol=4.0 * np.finfo(float).eps) for i in cells])
    return roots * np.abs(roots)


# --- shoot -------------------------------------------------------------------


def test_shoot_free_particle(q_zero):
    lam = 3.0
    tr = shoot(q_zero, lam**2)
    assert np.max(np.abs(tr.phi - np.sin(lam * tr.grid.nodes) / lam)) < 1e-10
    assert tr.phi[0] == 0.0 and tr.dphi[0] == 1.0


def test_shoot_constant_shift():
    q1 = sample_potential(lambda x: np.ones_like(x))
    lam = 2.0
    tr = shoot(q1, 1.0 + lam**2)
    assert np.max(np.abs(tr.phi - np.sin(lam * tr.grid.nodes) / lam)) < 1e-10


def test_shoot_matches_independent_rk4(q_cos):
    tr = shoot(q_cos, 4.0)
    per_cell = 8  # oracle step = trace spacing / 8, so every 8th point aligns
    oracle = rk4_oracle(interpolant(q_cos), 4.0, n_steps=per_cell * (tr.grid.n - 1))
    assert np.max(np.abs(tr.phi - oracle[::per_cell, 0])) < 1e-8


def test_shoot_rejects_huge_potential():
    q = sample_potential(lambda x: 2e6 * np.ones_like(x))
    with pytest.raises(ConfigError):
        shoot(q, 1.0)


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
    mus = np.array([r.mu for r in fwd_zero_64.records])
    expect = (np.arange(64) + 0.5) ** 2
    assert np.max(np.abs(mus - expect)) < 1e-9


def test_eigenvalues_constant_shift(q_zero):
    base = eigenvalues(q_zero, PI / 2, 6)
    q1 = sample_potential(lambda x: np.full_like(x, 0.7))
    shifted = eigenvalues(q1, PI / 2, 6)
    assert np.max(np.abs(shifted - base - 0.7)) < 1e-8


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
    for n in (0, 1, 5, 20, 63):
        assert fwd_cos_64.traces[n].interior_zero_count() == n


def test_constant_negative_eigenvalues_closed_form():
    # q = -2, beta = 2 pi/3: mu_0 lies below q (sinh branch), mu_1 between q and 0
    c, beta, N = -2.0, 2.0 * PI / 3.0, 16
    sol = forward.forward_solve(sample_potential(lambda x: np.full_like(x, c)), beta, N)
    mus = np.array([r.mu for r in sol.records])
    a = np.array([r.a for r in sol.records])
    mu_ref = exact_eigenvalues([(PI, c)], beta, N)
    assert mu_ref[0] < c < mu_ref[1] < 0.0 < mu_ref[2]
    assert np.max(np.abs(mus - mu_ref) / np.abs(mu_ref)) < 1e-10
    k = np.sqrt(np.abs(mu_ref - c))
    a_ref = np.where(mu_ref > c, (PI / 2 - np.sin(2 * k * PI) / (4 * k)) / k ** 2,
                     (np.sinh(2 * k * PI) / (4 * k) - PI / 2) / k ** 2)
    assert np.max(np.abs(a - a_ref) / a_ref) < 1e-10


def test_eigenvalues_l1_step_potential():
    # q = 0 on [0, pi/2), 2 on [pi/2, pi]; the sampled potential's cubic spline
    # rings at the jump, so the bound is the benchmark's, not roundoff
    beta, N = PI / 3, 16
    q = sample_potential(lambda x: np.where(x < PI / 2, 0.0, 2.0))
    mu_ref = exact_eigenvalues([(PI / 2, 0.0), (PI / 2, 2.0)], beta, N)
    mus = eigenvalues(q, beta, N)
    assert np.max(np.abs(mus - mu_ref) / (1.0 + np.abs(mu_ref))) < 1e-2


@pytest.mark.parametrize("mu", [-3.0, 0.3, 2500.0])
def test_sweep_derivative_matches_central_difference(q_cos, mu):
    # mu = -3 lies below q (s2 > 0); at 0.3 some cells have |mu - qbar| < 1e-2,
    # and every cell is on the series branch of dS/ds2; 2500 is past it
    cells = forward._Cells(q_cos)
    beta = as_angle(PI / 3)
    _, d_omega = forward._omega(cells, beta, [mu], deriv=True)
    eps = 1e-4 * np.sqrt(max(1.0, abs(mu)))
    fd = (characteristic(q_cos, beta, mu + eps) - characteristic(q_cos, beta, mu - eps)) / (2 * eps)
    assert d_omega[0] == pytest.approx(fd, rel=1e-7)


def test_forward_errors_name_their_cause(q_zero, monkeypatch):
    # at beta = pi/2 the roots of q = 0 are n + 1/2, so windows moved by 1/2
    # hold none of them
    beta = as_angle(PI / 2)
    delta = delta_sequence(beta, 4)
    shifted = DeltaSequence(beta, delta.values + 0.5, delta.low_modes)
    with pytest.raises(NumericsError, match=r"eigenvalue 2: no sign change .*\[.*\]: "
                                            r"Omega\(lo\)=.*Omega\(hi\)="):
        eigenvalues(q_zero, beta, 4, delta=shifted)
    with monkeypatch.context() as m:
        m.setattr(forward, "NEWTON_MAX", 1)
        with pytest.raises(NumericsError, match=r"eigenvalue \d+: Newton .* mu=.* in bracket \[.*\]"):
            eigenvalues(q_zero, beta, 4)
    # roots one index too high: mu_n = (n + 3/2)^2 has n + 1 zeros
    monkeypatch.setattr(forward, "_newton", lambda cells, beta, lo, *rest: (np.arange(lo.size) + 1.5) ** 2)
    with pytest.raises(NumericsError, match=r"eigenvalue 0: oscillation count 1 != 0 at mu=2.25"):
        eigenvalues(q_zero, beta, 4)


# --- norming constants ------------------------------------------------------------


def test_norming_free_particle(fwd_zero_64):
    a = np.array([r.a for r in fwd_zero_64.records[:20]])
    expect = np.pi / (2 * (np.arange(20) + 0.5) ** 2)
    assert np.max(np.abs(a - expect)) < 1e-10


def test_orthogonality(fwd_cos_64):
    G = fwd_cos_64.gram(30)
    a = np.array([r.a for r in fwd_cos_64.records[:30]])
    off = np.abs(G - np.diag(np.diag(G)))
    denom = np.sqrt(np.outer(a, a))
    assert np.max(off / denom) < 1e-8
    assert np.max(np.abs(np.diag(G) - a) / a) < 1e-10


def test_norming_rejects_non_eigenvalue(q_zero):
    # a real root has phi(pi) != 0 when sin(beta) != 0; feed a fake mu whose
    # phi(pi) vanishes (Dirichlet eigenvalue n=1 -> lambda = 1)
    with pytest.raises(NumericsError):
        norming_constants(q_zero, np.array([1.0]))


# --- expansion -----------------------------------------------------------------


def test_expand_reproduces_eigenfunction(fwd_zero_64):
    tr = fwd_zero_64.traces[3]
    f = GridFunction(tr.grid, tr.phi)
    out = expand(f, fwd_zero_64.records, fwd_zero_64.traces, 6)
    assert np.max(np.abs(out.values - f.values)) < 1e-8


def test_expand_uniform_convergence_interior(fwd_zero_64):
    grid = make_grid(257, RuleKind.TRAPEZOID)
    f = GridFunction(grid, grid.nodes.copy())
    mask = grid.nodes >= 0.3
    errs = []
    for N in (8, 16, 32, 64):
        out = expand(f, fwd_zero_64.records, fwd_zero_64.traces, N)
        errs.append(np.max(np.abs(out.values - f.values)[mask]))
    for a, b in zip(errs, errs[1:]):
        assert b <= 1.05 * a


def test_expand_vanishing_endpoint_converges_everywhere(fwd_zero_64):
    grid = make_grid(257, RuleKind.TRAPEZOID)
    f = GridFunction(grid, np.sin(grid.nodes))
    errs = []
    for N in (8, 16, 32, 64):
        out = expand(f, fwd_zero_64.records, fwd_zero_64.traces, N)
        errs.append(np.max(np.abs(out.values - f.values)))
    for a, b in zip(errs, errs[1:]):
        assert b <= 1.05 * a


def test_expand_requires_enough_records(fwd_zero_64):
    grid = make_grid(64, RuleKind.TRAPEZOID)
    f = GridFunction(grid, np.sin(grid.nodes))
    with pytest.raises(ConfigError):
        expand(f, fwd_zero_64.records, fwd_zero_64.traces, 100)


# --- ODE residual of traces -----------------------------------------------------


def test_trace_satisfies_equation(q_cos):
    tr = shoot(q_cos, 7.0)
    x = tr.grid.nodes
    h = x[1] - x[0]
    phixx = (tr.phi[2:] - 2 * tr.phi[1:-1] + tr.phi[:-2]) / h**2
    resid = -phixx + (interpolant(q_cos)(x[1:-1]) - 7.0) * tr.phi[1:-1]
    assert np.max(np.abs(resid)) < 5e-5  # second-order finite-difference floor
