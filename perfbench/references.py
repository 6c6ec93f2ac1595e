"""Reference answers computed apart from ``invspec``.

Nothing here imports the package under test.  The forward references come
from explicit characteristic functions of piecewise-constant potentials,
solved with ``scipy.optimize.brentq``; the inverse references are the closed
forms of the half-integer example (Gel'fand-Levitan kernel ``F``, transform
kernel ``P``, potential ``q`` and the recovered angle), written out here so
that a change to ``invspec.roundtrip`` cannot move them.

Problem: -y'' + q y = mu y on (0, pi), y(0) = 0, y'(0) = 1 (the normalisation
of phi), y(pi) cos(beta) + y'(pi) sin(beta) = 0.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

PI = np.pi

# ---------------------------------------------------------------------------
# Piecewise-constant potentials: exact transfer matrices
# ---------------------------------------------------------------------------


def _propagate(mu: np.ndarray, pieces) -> tuple[np.ndarray, np.ndarray]:
    """(phi(pi), phi'(pi)) for potentials constant on consecutive pieces.

    ``pieces`` is a sequence of (length, value) whose lengths sum to pi.  On a
    piece of length h with m = mu - value, y'' = -m y, so the state moves by
    the exact matrix [[C, S], [-m S, C]] with C = cos(sqrt(m) h),
    S = sin(sqrt(m) h)/sqrt(m) (cosh/sinh for m < 0, C = 1 and S = h at m = 0).
    """
    mu = np.asarray(mu, dtype=float)
    y = np.zeros_like(mu)
    dy = np.ones_like(mu)
    for h, value in pieces:
        m = mu - value
        k = np.sqrt(np.abs(m))
        safe_k = np.where(k > 0.0, k, 1.0)
        C = np.where(m > 0.0, np.cos(k * h), np.cosh(k * h))
        S = np.where(m > 0.0, np.sin(k * h), np.sinh(k * h)) / safe_k
        S = np.where(k > 0.0, S, h)
        y, dy = C * y + S * dy, -m * S * y + C * dy
    return y, dy


def characteristic(mu, pieces, beta: float) -> np.ndarray:
    """Omega(mu) = phi(pi) cos(beta) + phi'(pi) sin(beta); zeros are eigenvalues."""
    y, dy = _propagate(mu, pieces)
    return y * np.cos(beta) + dy * np.sin(beta)


def eigenvalues(pieces, beta: float, count: int, step: float = 0.005) -> np.ndarray:
    """First ``count`` zeros of the characteristic function, by a scan in
    z = sign(mu) sqrt(|mu|) (zeros sit about 1 apart there) and brentq.

    No eigenvalue lies below min(q) - cot(beta)^2 - 1: below it phi and phi'
    grow together and Omega keeps the sign of sin(beta).
    """
    q_min = min(value for _, value in pieces)
    mu_lo = q_min - 1.0 / np.tan(beta) ** 2 - 1.0
    z_lo = np.sign(mu_lo) * np.sqrt(abs(mu_lo))

    def omega(z):
        return characteristic(z * np.abs(z), pieces, beta)

    zs = np.arange(z_lo, count + 3.0, step)
    vals = omega(zs)
    if vals[0] * np.sin(beta) <= 0.0:
        raise ValueError("scan start is not below the ground state")
    cells = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)[:count]
    if cells.size < count:
        raise ValueError(f"found {cells.size} eigenvalues, wanted {count}")
    roots = np.array([brentq(lambda z: float(omega(np.array(z))), zs[i], zs[i + 1],
                             xtol=1e-15, rtol=4.0 * np.finfo(float).eps)
                      for i in cells])
    return roots * np.abs(roots)


def constant_norming(mu, value: float) -> np.ndarray:
    """a_n = integral over (0, pi) of phi^2 for the constant potential ``value``:
    phi = sin(k x)/k with k^2 = mu - value (sinh for mu < value, x at mu = value)."""
    m = np.asarray(mu, dtype=float) - value
    k = np.sqrt(np.abs(m))
    safe_k = np.where(k > 0.0, k, 1.0)
    trig = (PI / 2.0 - np.sin(2.0 * k * PI) / (4.0 * safe_k)) / safe_k ** 2
    hyp = (np.sinh(2.0 * k * PI) / (4.0 * safe_k) - PI / 2.0) / safe_k ** 2
    return np.where(m > 0.0, trig, np.where(m < 0.0, hyp, PI ** 3 / 3.0))


# ---------------------------------------------------------------------------
# The half-integer example: lambda_n = n + 1/2 at beta = pi/2, with the
# ground norming constant pi in place of its unperturbed 2 pi
# ---------------------------------------------------------------------------

EX6_BETA = PI / 2.0
EX6_COT_BETA_TILDE = 1.0 / PI


def ex6_spectrum(count: int) -> tuple[np.ndarray, np.ndarray]:
    """(mu_n, a_n) for n < count."""
    lam = np.arange(count) + 0.5
    a = PI / (2.0 * lam * lam)
    a[0] = PI
    return lam * lam, a


def ex6_F(x, t):
    return (2.0 / PI) * np.sin(np.asarray(x) / 2.0) * np.sin(np.asarray(t) / 2.0)


def ex6_P(x, t):
    x = np.asarray(x, dtype=float)
    return 4.0 * np.sin(x / 2.0) * np.sin(np.asarray(t) / 2.0) / (2.0 * np.sin(x) - 2.0 * x - 2.0 * PI)


def ex6_q(x):
    """q = 2 d/dx P(x, x)."""
    x = np.asarray(x, dtype=float)
    den = np.sin(x) - x - PI
    return 2.0 * np.sin(x) / den - 4.0 * (np.cos(x) - 1.0) * np.sin(x / 2.0) ** 2 / (den * den)
