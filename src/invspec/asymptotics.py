"""Eigenvalue-index corrections, unperturbed spectra, tail fits and the
closed-form trigonometric sums used to accelerate conditionally convergent
series.

For the Dirichlet/Robin pair considered here, the q = 0 eigenvalues behave
like (n + delta_n)^2 where delta_n in [-1, 1] solves a scalar phase equation;
delta_n -> 1/2 with a cot(beta)/(pi*(n+1/2)) correction.  The q = 0
spectrum is held as one array of lambda_n from n = 0: lambda_n = n + delta_n
from that phase equation for n >= 1, and lambda_0 from one root solve of the
explicit q = 0 characteristic function.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import copysign

import numpy as np

from .core import (
    PI,
    ZERO_MU_TOL,
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
ROOT_TOL = 1e-15   # absolute and relative tolerance of the ground-state root
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
    """delta_n for every index in ns (each n >= 1) by fixed-point iteration
    seeded at 1/2.

    The map's slope in delta is -cot b/(pi (omega^2 + cot^2 b)), omega = n + d,
    at most 1/(2 pi omega) in size; every iterate lies in (0, 1), so omega > 1
    and the slope is below 1/(2 pi): the iteration contracts at every angle
    and reaches DELTA_TOL within 16 steps at n = 1 and 13 from n = 2 on, on
    a sweep of beta across (0, pi).
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
    """The q = 0 eigenvalue square roots lambda_n for n = 0..n_max, signed so
    that mu_n = lambda_n |lambda_n| (a negative ground eigenvalue is
    representable); lambda_n = n + delta_n for n >= 1."""

    beta: BoundaryAngle
    lam: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lam", _frozen(self.lam))

    @property
    def n_max(self) -> int:
        return self.lam.size - 1

    def omega(self, n) -> np.ndarray:
        """lambda_n, the unperturbed n + delta_n, for an index or an array of
        indices in 0..n_max; any other index is refused."""
        idx = np.asarray(n)
        if idx.size and not (idx.min() >= 0 and idx.max() <= self.n_max):
            bad = idx.flat[np.argmax((idx < 0) | (idx > self.n_max))]
            raise ConfigError(f"index {bad} is outside 0..n_max = {self.n_max}")
        return self.lam[n]


def delta_sequence(beta: BoundaryAngle | float, n_max: int) -> DeltaSequence:
    """lambda_n at q = 0 for n = 0..n_max: lambda_0 from _ground_lambda and
    n + delta_n for n >= 1 from one fixed-point batch."""
    beta = as_angle(beta)
    _check_count("n_max", n_max, DELTA_MIN_N)
    ns = np.arange(1, n_max + 1, dtype=float)
    lam = np.concatenate([[_ground_lambda(beta)], ns + _solve_delta_array(beta, ns)])
    return DeltaSequence(beta, lam)


def characteristic_q0(beta: BoundaryAngle, mu) -> np.ndarray:
    """q = 0 characteristic function sin(l*pi)cos(b)/l + cos(l*pi)sin(b),
    continued through mu <= 0."""
    return musin(mu, PI) * np.cos(beta.beta) + mucos(mu, PI) * np.sin(beta.beta)


def _ground_lambda(beta: BoundaryAngle) -> float:
    """The q = 0 ground eigenvalue square root, signed so that mu = s*|s|:
    the root of characteristic_q0(beta, s|s|) by :func:`_brent`.

    It is the only root on [s_lo, 1], s_lo = -sqrt(max(0, -cot beta)^2 + 1)
    (the q = 0 case of the lower bound in forward.eigenvalues): the
    characteristic function is positive at s_lo and equals -sin(beta) at
    s = 1.  An s_lo where the function overflows (cosh near
    mu = -cot^2 beta) is refused by name.
    """
    s_lo = -float(np.sqrt(max(0.0, -beta.cot) ** 2 + 1.0))
    with np.errstate(over="ignore", invalid="ignore"):  # cosh may overflow at s_lo; see below
        f_lo = float(characteristic_q0(beta, s_lo * abs(s_lo)))
    if not np.isfinite(f_lo):
        raise NumericsError(f"failed to bracket the q = 0 ground state for beta={beta.beta:.12g}: "
                            f"the q = 0 characteristic function overflows double precision at "
                            f"mu={s_lo * abs(s_lo):.6g} and below, and its ground state lies near "
                            f"-cot(beta)^2 = {-1.0 / np.tan(beta.beta) ** 2:.6g}")
    return _brent(lambda s: float(characteristic_q0(beta, s * abs(s))), s_lo, 1.0, f_lo)


def _brent(f, a: float, b: float, fa: float) -> float:
    """A root of f between a and b, given fa = f(a), to within
    ROOT_TOL (1 + |root|), by Brent's method (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4) step for step as
    scipy.optimize.brentq takes it with xtol = rtol = ROOT_TOL, so the two
    return the same root.

    The bracket between xblk and xcur always holds a sign change, xcur the
    end with the smaller |f|.  Each step tries the secant through the last
    two points (the inverse quadratic through three once the far end xblk is
    not the previous point) and keeps it only if it lands well inside the
    bracket and is under half the step before last; otherwise it bisects.
    A trial step whose arithmetic overflows or would divide by zero is not
    kept.
    Bracket ends of one sign, or 100 steps without convergence, are refused.
    """
    xpre, fpre, xcur, fcur = a, fa, b, f(b)
    if fpre == 0.0:
        return xpre
    if (fpre < 0.0) == (fcur < 0.0) and fcur != 0.0:
        raise NumericsError(f"no sign change between {a!r} and {b!r}: f = {fpre:.3g}, {fcur:.3g}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fcur == 0.0:
            return xcur
        if (fpre < 0.0) != (fcur < 0.0):  # the root lies between xpre and xcur
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (ROOT_TOL + ROOT_TOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if abs(sbis) < delta:
            return xcur
        stry = float("nan")  # a NaN trial step fails the test below
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den != 0.0:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else copysign(delta, sbis)
        fcur = f(xcur)
    raise NumericsError(f"root search between {a!r} and {b!r} did not converge in 100 steps")


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
    """Spectral data of the q = 0 problem: mu_n = lambda_n |lambda_n| from the
    delta sequence, and closed-form norming constants."""
    beta = as_angle(beta)
    _check_count("N", N, 3)
    if delta is None or delta.n_max < N - 1:
        delta = delta_sequence(beta, N - 1)
    lam = delta.lam[:N]
    mu = lam * np.abs(lam)
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
    closed form; the remaining terms decay like 1/n^3 and are summed chunk by
    chunk, up to the first chunk in which every term is below
    1e-14*(|sum|+1).
    """
    beta = as_angle(beta)
    if not (0.0 < x < 2.0 * PI):
        raise DomainError(f"x={x} outside (0, 2*pi)")
    total = float(sin_halfint_closed(x)) + (x * beta.cot / PI) * float(cos_halfint_closed(x))
    # residual series with O(1/n^3) terms
    tail = 0.0
    for n0 in range(DELTA_MIN_N, SERIES_MAX_TERMS, SERIES_CHUNK):
        ns = np.arange(n0, min(n0 + SERIES_CHUNK, SERIES_MAX_TERMS), dtype=float)
        dl = _solve_delta_array(beta, ns)
        om = ns + dl
        half = ns + 0.5
        terms = (np.sin(om * x) / om
                 - np.sin(half * x) / half
                 - (x * beta.cot / PI) * np.cos(half * x) / (half * half))
        tail += float(terms.sum())
        if np.all(np.abs(terms) < 1e-14 * (abs(total + tail) + 1.0)):
            break
    return total + tail


# ---------------------------------------------------------------------------
# Tail models fitted from finite data
# ---------------------------------------------------------------------------


def signed_sqrt(mu) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    return np.sign(mu) * np.sqrt(np.abs(mu))


@dataclass(frozen=True)
class TailFit:
    """The tail model of finite data (see :func:`fit_tail`): the drift
    constant ``c``, the third pass's third-order coefficient ``kappa``, the
    norming coefficient ``gamma``, the Cauchy ``spread`` of ``c``, and for
    n >= 2 the remainders ``l_n`` = signed_sqrt(mu_n - c) - omega_n and ``s_n``."""

    c: float
    kappa: float
    gamma: float
    spread: float
    l_n: np.ndarray
    s_n: np.ndarray


def fit_tail(data: SpectralData, delta: DeltaSequence) -> TailFit:
    """Fit the tails lambda_n ~ omega_n + c/(2 omega_n) + kappa/omega_n^3 and
    1/(a_n mu_n) - 1/(a_n mu_n)(base) ~ gamma/omega_n^2 to the data, omega_n
    and the base those of q = 0 from ``delta``, which must reach n = count - 1.

    g_n := 2 omega_n (lambda_n - omega_n) tends to c, and for smooth q its
    next term is of order 1/omega^2, not 1/omega; a least-squares fit of g
    against [1, 1/omega^2] over the last third of the n >= 2 extrapolates
    the limit.  It runs three times, each on the data shifted by the c so
    far, so that the nonlinearity of sqrt(mu) in a large c leaves no bias;
    ``kappa`` is half the third pass's 1/omega^2 coefficient, ``l_n`` the
    remainders signed_sqrt(mu_n - c) - omega_n at the final c, and ``spread``
    the gap between the last-third and last-sixth fits of 2 omega_n l_n.
    ``gamma`` is the least-squares coefficient over the last third of the
    n >= 2 with nonzero mu_n - c, and ``s_n`` inverts
    a_n = pi/(2 omega^2) (1 + 2 s_n/(pi omega)).  A coefficient with fewer
    than 4 fit points is 0.
    """
    om = delta.omega(np.arange(2, data.count))
    mu, a = data.mu[2:], data.norming[2:]
    c = kappa = spread = gamma = 0.0
    l_n = signed_sqrt(mu) - om
    if om.size >= 4:
        for _ in range(3):
            dc, slope = _tail_fit(om, 2.0 * om * l_n, 1.0 / 3.0)
            c += dc
            l_n = signed_sqrt(mu - c) - om
        kappa = 0.5 * slope
        g = 2.0 * om * l_n
        spread = abs(_tail_fit(om, g, 1.0 / 3.0)[0] - _tail_fit(om, g, 1.0 / 6.0)[0])
    mu_c = mu - c
    keep = np.abs(mu_c) >= ZERO_MU_TOL
    if keep.sum() >= 4:
        om_k = om[keep]
        mu_b = om_k * om_k
        g = 1.0 / (a[keep] * mu_c[keep]) - 1.0 / (unperturbed_norming(mu_b) * mu_b)
        m = max(4, om_k.size // 3)
        w = 1.0 / (om_k[-m:] * om_k[-m:])
        gamma = float(np.dot(g[-m:], w) / float(np.dot(w, w)))
    s_n = (a * 2.0 * om * om / PI - 1.0) * PI * om / 2.0
    return TailFit(c, kappa, gamma, spread, l_n, s_n)


def shift_spectrum(data: SpectralData, c: float) -> SpectralData:
    """The data of q - c: every eigenvalue moved by -c, the norming constants unchanged."""
    return SpectralData(data.beta, data.mu - c, data.norming, c_fit=0.0)


def _tail_fit(om: np.ndarray, g: np.ndarray, frac: float) -> tuple[float, float]:
    """Least-squares fit of g against [1, 1/omega^2] over the last frac of the
    sequence: (intercept, 1/omega^2 coefficient)."""
    m = max(4, int(np.ceil(om.size * frac)))
    omt, gt = om[-m:], g[-m:]
    A = np.column_stack([np.ones(omt.size), 1.0 / (omt * omt)])
    coef, *_ = np.linalg.lstsq(A, gt, rcond=None)
    return float(coef[0]), float(coef[1])


# ---------------------------------------------------------------------------
# Refined tail checks for smooth potentials
# ---------------------------------------------------------------------------


def refined_asymptotics_check(q: Potential, q_prime: GridFunction, beta: BoundaryAngle | float,
                              data: SpectralData, n_lo: int = 10, n_hi: int | None = None) -> dict:
    """Report residuals of the sharpened eigenvalue/norming tails that hold
    for absolutely continuous potentials, over n = n_lo..n_hi with
    0 <= n_lo <= n_hi < count (n_hi defaults to count - 1).

    lambda residual: lambda_n - (omega + [q]/(2 omega) + l_n) with
    l_n = (1/(4 pi omega^2)) * integral q'(x) sin(2 omega x) dx; the residual
    times n^3 should stay bounded.  Norming residual: relative defect of
    a_n * 2 omega^2/pi against 1 + [q]_b/(2 omega^2) + 2 s_n/(pi omega^2) with
    s_n = (1/4) * integral (pi-t) q'(t) cos(2 omega t) dt and
    [q]_b = (5/pi) * integral q + 2 (q(0) + cot b); again n^3-bounded.
    """
    beta = as_angle(beta)
    n_hi = n_hi if n_hi is not None else data.count - 1
    _check_count("n_lo", n_lo, 0)
    _check_count("n_hi", n_hi, n_lo)
    if n_hi >= data.count:
        raise ConfigError(f"n_hi={n_hi} beyond the {data.count} data points")
    delta = delta_sequence(beta, max(n_hi, DELTA_MIN_N))
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
