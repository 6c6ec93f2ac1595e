"""Eigenvalue-index corrections, unperturbed spectra, tail fits and the
closed-form trigonometric sums used to accelerate conditionally convergent
series.

For the Dirichlet/Robin pair considered here, the q = 0 eigenvalues behave
like (n + delta_n)^2 where delta_n in [-1, 1] solves a scalar phase equation;
delta_n -> 1/2 with a cot(beta)/(pi*(n+1/2)) correction.  Everything below is
indexed so that delta_n exists for n >= 2, while the two lowest modes come
from direct root finding on the explicit q = 0 characteristic function.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .core import (
    PI,
    BoundaryAngle,
    GridFunction,
    Potential,
    SpectralData,
    as_angle,
    gauss_rule,
    interpolant,
    mucos,
    musin,
    _check_count,
    _continued,
    _frozen,
)
from .errors import ConfigError, DomainError, NumericsError

DELTA_MIN_N = 2
DELTA_TOL = 1e-14  # fixed-point residual at which delta_n is accepted
SERIES_CHUNK, SERIES_MAX_TERMS = 20000, 2_000_000  # t_beta_closed_form's residual terms per batch, in all


def _phase_map(delta, n, beta: BoundaryAngle):
    """Right-hand side of the fixed-point equation for delta_n.

    With a Dirichlet left end the first phase contribution is identically 1,
    leaving 1 - atan2((n+d) sin b, cos b)/pi: the angle whose cosine is
    cos b / sqrt((n+d)^2 sin^2 b + cos^2 b), written so that it stays well
    conditioned at every angle (arccos of that ratio loses digits near 1).
    """
    return 1.0 - np.arctan2((n + delta) * np.sin(beta.beta), np.cos(beta.beta)) / PI


def solve_delta(beta: BoundaryAngle | float, n: int) -> float:
    """Solve the phase equation for a single index n >= 2 (see _solve_delta_array)."""
    _check_count("n", n, DELTA_MIN_N)
    beta = as_angle(beta)
    out = _solve_delta_array(beta, np.array([n], dtype=float))
    return float(out[0])


def _solve_delta_array(beta: BoundaryAngle, ns: np.ndarray) -> np.ndarray:
    """delta_n for every index in ns (each n >= 2) by fixed-point iteration
    seeded at 1/2.

    The map's slope in delta is -cot b/(pi (omega^2 + cot^2 b)), omega = n + d,
    at most 1/(2 pi omega) in size; every iterate lies in (0, 1), so omega > 2
    and the slope is below 1/(4 pi): the iteration contracts at every angle
    and reaches DELTA_TOL within 13 steps on a sweep of beta across (0, pi).
    A residual above DELTA_TOL is refused."""
    delta = np.full(ns.shape, 0.5)
    for _ in range(50):
        new = _phase_map(delta, ns, beta)
        done = np.all(np.abs(new - delta) <= DELTA_TOL)
        delta = new
        if done:
            break
    resid = np.abs(delta - _phase_map(delta, ns, beta))
    if np.any(resid > DELTA_TOL):
        worst = int(np.argmax(resid))
        raise NumericsError(f"delta_n iteration stalled at n={int(ns[worst])}, residual {resid[worst]:.3e}")
    return delta


@dataclass(frozen=True)
class DeltaSequence:
    """delta_n values for n = 2..n_max plus the two unperturbed low modes."""

    beta: BoundaryAngle
    values: np.ndarray  # index j holds delta_{j+2}
    low_modes: tuple[float, float]  # lambda_0, lambda_1 of the q = 0 problem

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))

    @property
    def n_max(self) -> int:
        return self.values.size + 1  # covers n = 2..n_max inclusive

    def omega(self, n) -> np.ndarray:
        """n + delta_n for n >= 2 (the unperturbed lambda_n)."""
        n = np.asarray(n, dtype=float)
        return n + self.values[np.asarray(n, dtype=int) - 2]


def delta_sequence(beta: BoundaryAngle | float, n_max: int) -> DeltaSequence:
    """delta_n for n = 2..n_max, plus root-found lambda_0, lambda_1 at q = 0."""
    beta = as_angle(beta)
    _check_count("n_max", n_max, DELTA_MIN_N)
    ns = np.arange(DELTA_MIN_N, n_max + 1, dtype=float)
    values = _solve_delta_array(beta, ns)
    lam0, lam1 = _low_mode_lambdas(beta, float(values[0]))
    return DeltaSequence(beta, values, (lam0, lam1))


def characteristic_q0(beta: BoundaryAngle, mu) -> np.ndarray:
    """q = 0 characteristic function sin(l*pi)cos(b)/l + cos(l*pi)sin(b),
    continued through mu <= 0."""
    return musin(mu, PI) * np.cos(beta.beta) + mucos(mu, PI) * np.sin(beta.beta)


def _low_mode_lambdas(beta: BoundaryAngle, delta2: float) -> tuple[float, float]:
    """First two q = 0 eigenvalue square roots by one scan + Brent refinement.

    Returns signed square roots s with mu = s*|s| so that a negative ground
    eigenvalue is representable.  The scan runs on 400 points from
    s_lo = -sqrt(max(0, -cot beta)^2 + 1), below the ground state (the q = 0
    case of the lower bound in forward.eigenvalues), to just below the
    n = 2 asymptotic window.
    """
    upper = 2.0 + delta2 - 0.45  # stay clear of the n = 2 asymptotic window
    s_lo = -np.sqrt(max(0.0, -beta.cot) ** 2 + 1.0)
    ss = np.linspace(s_lo, upper, 400)
    mus = ss * np.abs(ss)
    with np.errstate(over="ignore", invalid="ignore"):  # cosh may overflow at the low end; see below
        vals = characteristic_q0(beta, mus)
    sign_change = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    if sign_change.size >= 2:
        f = lambda s: float(characteristic_q0(beta, s * abs(s)))
        lam0, lam1 = (brentq(f, ss[i], ss[i + 1], xtol=1e-15, rtol=1e-15) for i in sign_change[:2])
        return float(lam0), float(lam1)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise NumericsError(f"failed to bracket the two lowest q = 0 eigenvalues for beta={beta.beta:.12g}: "
                            f"the q = 0 characteristic function overflows double precision at "
                            f"mu={mus[bad].max():.6g} and below, and its ground state lies near "
                            f"-cot(beta)^2 = {-1.0 / np.tan(beta.beta) ** 2:.6g}")
    raise NumericsError(f"failed to bracket the two lowest q = 0 eigenvalues for beta={beta.beta:.12g}: "
                        f"{sign_change.size} sign change(s) of the q = 0 characteristic function "
                        f"on s in [{s_lo:.6g}, {upper:.6g}]")


def unperturbed_norming(mu) -> np.ndarray:
    """Closed form of the q = 0 norming constant: integral of (sin(lx)/l)^2.

    a(mu) = (pi/2 - sin(2*pi*l)/(4*l)) / mu, continued through mu <= 0 where
    it equals pi^3/3 at mu = 0 and the sinh analogue below.
    """
    def closed(m, _):
        return (PI / 2.0 - musin(m, 2.0 * PI) / 4.0) / m

    def near(m, _):
        # series of (pi/2 - musin(mu, 2pi)/4)/mu around mu = 0
        t = 2.0 * PI
        return t**3 / 24.0 - m * t**5 / 480.0 + m * m * t**7 / 20160.0

    return _continued(mu, 0.0, 1e-4, closed, closed, near)


def unperturbed_spectrum(beta: BoundaryAngle | float, N: int, delta: DeltaSequence | None = None) -> SpectralData:
    """Spectral data of the q = 0 problem: lambda_n = n + delta_n for n >= 2,
    the two low modes from root finding, and closed-form norming constants."""
    beta = as_angle(beta)
    _check_count("N", N, 3)
    if delta is None or delta.n_max < N - 1:
        delta = delta_sequence(beta, max(N, 3))
    lam0, lam1 = delta.low_modes
    mu = np.empty(N)
    mu[0] = lam0 * abs(lam0)
    mu[1] = lam1 * abs(lam1)
    om = delta.omega(np.arange(2, N))
    mu[2:] = om * om
    return SpectralData(beta=beta.beta, mu=mu, norming=unperturbed_norming(mu), c_fit=0.0)


# ---------------------------------------------------------------------------
# Closed forms for the half-integer-frequency series
# ---------------------------------------------------------------------------


def sin_halfint_closed(x):
    """sum_{n>=2} sin((n+1/2)x)/(n+1/2) on (0, 2*pi)."""
    x = np.asarray(x, dtype=float)
    return PI / 2.0 - 2.0 * np.sin(x / 2.0) - (2.0 / 3.0) * np.sin(1.5 * x)


def cos_halfint_closed(x):
    """sum_{n>=2} cos((n+1/2)x)/(n+1/2)^2 on [0, 2*pi].

    The full n >= 0 sum is (pi^2 - pi*x)/2 (odd-harmonic cosine series); the
    two leading terms are removed explicitly.
    """
    x = np.asarray(x, dtype=float)
    full = (PI * PI - PI * x) / 2.0
    return full - 4.0 * np.cos(x / 2.0) - (4.0 / 9.0) * np.cos(1.5 * x)


def t_beta_closed_form(beta: BoundaryAngle | float, x: float) -> float:
    """Accelerated value of sum_{n>=2} sin((n+delta_n)x)/(n+delta_n).

    Splits off the half-integer part and its first cot(beta) correction in
    closed form; the remaining terms decay like 1/n^3 and are summed until
    three consecutive terms drop below 1e-14*(|sum|+1).
    """
    beta = as_angle(beta)
    if not (0.0 < x < 2.0 * PI):
        raise DomainError(f"x={x} outside (0, 2*pi)")
    total = float(sin_halfint_closed(x)) + (x * beta.cot / PI) * float(cos_halfint_closed(x))
    # residual series with O(1/n^3) terms
    tail = 0.0
    below = 0
    for n0 in range(DELTA_MIN_N, SERIES_MAX_TERMS, SERIES_CHUNK):
        ns = np.arange(n0, min(n0 + SERIES_CHUNK, SERIES_MAX_TERMS), dtype=float)
        dl = _solve_delta_array(beta, ns)
        om = ns + dl
        half = ns + 0.5
        terms = (np.sin(om * x) / om
                 - np.sin(half * x) / half
                 - (x * beta.cot / PI) * np.cos(half * x) / (half * half))
        tail += float(terms.sum())
        thresh = 1e-14 * (abs(total + tail) + 1.0)
        small = np.abs(terms) < thresh
        # count trailing consecutive small terms across chunk boundaries
        below = _trailing_true(small, carry=below)
        if below >= 3:
            break
    return total + tail


def _trailing_true(mask: np.ndarray, carry: int) -> int:
    if mask.all():
        return carry + mask.size
    last_false = int(np.flatnonzero(~mask)[-1])
    return mask.size - 1 - last_false


# ---------------------------------------------------------------------------
# Tail models fitted from finite data
# ---------------------------------------------------------------------------


def signed_sqrt(mu) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    return np.sign(mu) * np.sqrt(np.abs(mu))


def _drift_terms(data: SpectralData, delta: DeltaSequence):
    """omega_n, lambda_n and g_n := 2*omega_n*(lambda_n - omega_n) for n >= 2."""
    om = delta.omega(np.arange(2, data.count))
    lam = signed_sqrt(data.mu[2:])
    return om, lam, 2.0 * om * (lam - om)


def fit_c(data: SpectralData, delta: DeltaSequence) -> tuple[float, float, np.ndarray]:
    """Estimate the eigenvalue drift constant, the third-order tail
    coefficient and per-index remainders.

    g_n tends to c, and for smooth q its next term is of order 1/omega^2,
    not 1/omega; a least-squares fit of g against [1, 1/omega^2] over the
    last third of the sequence extrapolates the limit.  Half the 1/omega^2
    coefficient is kappa in lambda_n ~ omega_n + c/(2 omega_n) + kappa/omega_n^3.
    Returns (c, kappa, l_seq) with l_seq aligned to n >= 2.
    """
    if data.count < 12:
        raise ConfigError(f"fit_c needs at least 12 data points, got {data.count}")
    om, lam, g = _drift_terms(data, delta)
    c, slope = _tail_fit(om, g, frac=1.0 / 3.0)
    # a non-Cauchy tail (fit_c_spread > 10%) is reported by validate(), not raised
    l_seq = lam - om - c / (2.0 * om)
    return c, 0.5 * slope, l_seq


def drift_constant(data: SpectralData, delta: DeltaSequence) -> tuple[float, float, np.ndarray]:
    """fit_c refined twice on the data shifted by the estimate so far, so that the
    nonlinearity of sqrt(mu) in a large c leaves no bias; (c, kappa, l_seq of the last pass)."""
    c = 0.0
    for _ in range(3):
        dc, kappa, l_seq = fit_c(shift_spectrum(data, c), delta)
        c += dc
    return c, kappa, l_seq


def shift_spectrum(data: SpectralData, c: float) -> SpectralData:
    """The data of q - c: every eigenvalue moved by -c, the norming constants unchanged."""
    return SpectralData(data.beta, data.mu - c, data.norming, c_fit=0.0)


def fit_c_spread(data: SpectralData, delta: DeltaSequence) -> float:
    """Gap between the last-third and last-sixth tail fits (Cauchy check)."""
    om, _, g = _drift_terms(data, delta)
    return abs(_tail_fit(om, g, 1.0 / 3.0)[0] - _tail_fit(om, g, 1.0 / 6.0)[0])


def _tail_fit(om: np.ndarray, g: np.ndarray, frac: float) -> tuple[float, float]:
    """Least-squares fit of g against [1, 1/omega^2] over the last frac of the
    sequence: (intercept, 1/omega^2 coefficient)."""
    m = max(4, int(np.ceil(om.size * frac)))
    omt, gt = om[-m:], g[-m:]
    A = np.column_stack([np.ones(omt.size), 1.0 / (omt * omt)])
    coef, *_ = np.linalg.lstsq(A, gt, rcond=None)
    return float(coef[0]), float(coef[1])


def extract_s(data: SpectralData, delta: DeltaSequence) -> np.ndarray:
    """Invert the norming-constant tail form for s_n (n >= 2):
    a_n = pi/(2 omega^2) * (1 + 2 s_n/(pi omega))."""
    ns = np.arange(2, data.count)
    om = delta.omega(ns)
    return (data.norming[2:] * 2.0 * om * om / PI - 1.0) * PI * om / 2.0


# ---------------------------------------------------------------------------
# Refined tail checks for smooth potentials
# ---------------------------------------------------------------------------


def refined_asymptotics_check(q: Potential, q_prime: GridFunction, beta: BoundaryAngle | float,
                              data: SpectralData, n_lo: int = 10, n_hi: int | None = None) -> dict:
    """Report residuals of the sharpened eigenvalue/norming tails that hold
    for absolutely continuous potentials.

    lambda residual: lambda_n - (omega + [q]/(2 omega) + l_n) with
    l_n = (1/(4 pi omega^2)) * integral q'(x) sin(2 omega x) dx; the residual
    times n^3 should stay bounded.  Norming residual: relative defect of
    a_n * 2 omega^2/pi against 1 + [q]_b/(2 omega^2) + 2 s_n/(pi omega^2) with
    s_n = (1/4) * integral (pi-t) q'(t) cos(2 omega t) dt and
    [q]_b = (5/pi) * integral q + 2 (q(0) + cot b); again n^3-bounded.
    """
    beta = as_angle(beta)
    n_hi = n_hi if n_hi is not None else data.count - 1
    if n_hi >= data.count:
        raise ConfigError(f"n_hi={n_hi} beyond the {data.count} data points")
    delta = delta_sequence(beta, n_hi + 1)
    xq, wq = gauss_rule(256, 0.0, PI)
    qv = interpolant(q)(xq)
    qpv = interpolant(q_prime)(xq)
    q_int = float(np.dot(wq, qv))
    q_mean = q_int / PI
    q0 = float(interpolant(q)(0.0))
    q_beta = 5.0 / PI * q_int + 2.0 * (q0 + beta.cot)

    ns = np.arange(n_lo, n_hi + 1)
    om = delta.omega(ns)
    lam = signed_sqrt(data.mu[ns])
    a = data.norming[ns]

    phase = 2.0 * np.outer(om, xq)
    l_n = (wq * qpv * np.sin(phase)).sum(axis=1) / (4.0 * PI * om * om)
    s_n = 0.25 * (wq * (PI - xq) * qpv * np.cos(phase)).sum(axis=1)

    lam_resid = lam - (om + q_mean / (2.0 * om) + l_n)
    a_rel = a * 2.0 * om * om / PI - 1.0 - q_beta / (2.0 * om * om) - 2.0 * s_n / (PI * om * om)

    n3 = ns.astype(float) ** 3
    return {
        "n": ns,
        "lambda_residual": lam_resid,
        "norming_residual": a_rel,
        "lambda_scaled": np.abs(lam_resid) * n3,
        "norming_scaled": np.abs(a_rel) * n3,
        "lambda_bounded": _bounded(np.abs(lam_resid) * n3),
        "norming_bounded": _bounded(np.abs(a_rel) * n3),
        "q_mean": q_mean,
        "q_beta": q_beta,
    }


def _bounded(scaled: np.ndarray, factor: float = 10.0) -> bool:
    med = float(np.median(scaled))
    return bool(scaled.max() <= factor * med + 1e-9)
