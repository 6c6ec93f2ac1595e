import numpy as np
import pytest

from invspec.core import (
    PI,
    GridFunction,
    RuleKind,
    interpolant,
    make_grid,
    sample_potential,
)
from invspec.errors import ConfigError, NumericsError
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
        norming_constants(q_zero, PI / 2, np.array([1.0]))


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
