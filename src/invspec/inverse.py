"""Inverse solver: from two spectral sequences to the potential and the
recovered boundary angle.

Pipeline: admissibility checks (which also fit the drift constant c of the
eigenvalues, lambda_n ~ omega_n + c/(2 omega_n)) -> difference kernel H(t)
built from the data against the unperturbed (q = 0) spectrum for the same
angle -> symmetric kernel F(x,t) = (H(|x-t|) - H(x+t))/2 -> per-x Fredholm
solves (Nystrom, Gauss-Legendre on [0, x]) for the transformation kernel row
P(x, .) -> q(x) = 2 d/dx P(x,x), solutions phi rebuilt through the kernel,
and the boundary angle from the constancy of phi'(pi)/phi(pi) over
eigenvalues, with phi' from the x-derivative of the row equation.

Everything after validate expects drift-free data (c = 0).  A constant
shift of q moves every eigenvalue by that constant and leaves phi and a_n
unchanged, so (mu_n - c, a_n) are the exact data of q - c;
:func:`invspec.roundtrip.inverse_pipeline` inverts those and adds c back.

H is tabulated on a uniform grid of [0, 2*pi] and summed in two parts.
Pairs with mu < 1 (zero, negative and the lowest modes) take the
numerically stable form (cos(lt)-1)/mu plus per-index constants, which turns
the degenerate zero-eigenvalue branches into exact limits of the regular
formula.  Every other term is cos(lt)/(a mu) with l a half-integer plus an
offset of at most 1/2; a Taylor series in the offset turns these sums into
one FFT per order, with data and base terms cancelling in shared bins before
any transform.  On drift-free data the truncation tail is the absolutely
convergent cosine series of the fitted coefficient model, restored from its
closed form.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.fft
from scipy.interpolate import CubicSpline
from scipy.linalg.lapack import dgecon, dgetrf, dgetrs

from .asymptotics import (
    DeltaSequence,
    cos_halfint_closed,
    delta_sequence,
    extract_s,
    fit_c,
    fit_c_spread,
    signed_sqrt,
    unperturbed_spectrum,
)
from .core import (
    PI,
    ZERO_MU_TOL,
    BoundaryAngle,
    Potential,
    SpectralData,
    as_angle,
    gauss_rule,
    mucos,
    mucosm1,
    musin,
    trapezoid_grid,
)
from .errors import AdmissibilityError, ConfigError, DataConsistencyError, DomainError, NumericsError

TWO_PI = 2.0 * PI
DEFAULT_N_TERMS = 2000
DEFAULT_N_QUAD = 96
DEFAULT_X_NODES = 129
CONDITION_LIMIT = 1e8   # on the 1-norm condition estimate of each Nystrom matrix
PHI_BLOCK = 1 << 14     # mu values x x-nodes x row nodes per batch of KernelField.phi
H_GRID_SIZE = 32769
_H_GRID = np.linspace(0.0, TWO_PI, H_GRID_SIZE)
_H_GRID.flags.writeable = False


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------


def validate(data: SpectralData, beta: BoundaryAngle | float) -> dict:
    """Admissibility report for (mu_n, a_n) against the given angle.

    Hard failures (block the inverse solve unless forced): non-monotone or
    duplicated eigenvalues, non-positive norming constants, or a tail that
    strays more than 0.25 from n + delta_n over the final quarter, once the
    spectrum is shifted by its drift constant.  Trend violations of the
    remainder sequences only warn, since a finite prefix cannot prove a limit.

    ``c_fit`` is the drift constant: the tail fit of :func:`fit_c`, refined
    twice on the data shifted by the estimate so far, so that the
    nonlinearity of sqrt(mu) in a large c leaves no bias.
    """
    beta = as_angle(beta)
    if data.count < 12:
        raise ConfigError(f"validation needs at least 12 data points, got {data.count}")
    delta = delta_sequence(beta, data.count + 2)
    checks = []

    mono = bool(np.all(np.diff(data.mu) > 0))
    checks.append({
        "name": "eigenvalues-strictly-increasing",
        "status": "pass" if mono else "fail",
        "detail": "" if mono else "duplicated or out-of-order mu entries",
    })

    pos = bool(np.all(data.norming > 0))
    checks.append({
        "name": "norming-constants-positive",
        "status": "pass" if pos else "fail",
        "detail": "" if pos else f"min a_n = {float(data.norming.min()):.3e}",
    })

    c = None
    if mono and pos:
        c = 0.0
        for _ in range(3):
            dc, l_seq = fit_c(_shifted(data, c), delta)
            c += dc
        shifted = _shifted(data, c)

        q_start = max(2, (3 * data.count) // 4)
        ns = np.arange(q_start, data.count)
        om = delta.omega(ns)
        lam = signed_sqrt(shifted.mu[ns])
        tail_gap = float(np.max(np.abs(lam - om))) if ns.size else np.inf
        tail_ok = tail_gap < 0.25
        checks.append({
            "name": "tail-tracks-unperturbed-order",
            "status": "pass" if tail_ok else "fail",
            "detail": f"max |sqrt(mu_n - c) - (n+delta_n)| = {tail_gap:.3f} over the final quarter",
        })

        spread = fit_c_spread(shifted, delta)
        cauchy = spread <= 0.1 * (1.0 + abs(c))
        checks.append({
            "name": "drift-constant-fit-cauchy",
            "status": "pass" if cauchy else "warn",
            "detail": f"c = {c:.6g} (fitted from the tail; the source data carries no "
                      f"explicit constant), refit spread = {spread:.3g}",
        })

        ns_all = np.arange(2, data.count)
        nl = np.abs(ns_all * l_seq)
        checks.append(_trend_check("eigenvalue-remainder-trend", nl))

        checks.append(_trend_check("norming-remainder-trend", np.abs(extract_s(data, delta))))

    hard_fail = any(ch["status"] == "fail" for ch in checks)
    return {
        "checks": checks,
        "hard_fail": hard_fail,
        "status": "fail" if hard_fail else (
            "warn" if any(ch["status"] == "warn" for ch in checks) else "pass"),
        "c_fit": c,
        "count": data.count,
        "beta": beta.beta,
    }


def _shifted(data: SpectralData, c: float) -> SpectralData:
    """The data of q - c: every eigenvalue moved by -c, the norming constants
    unchanged."""
    return SpectralData(data.beta, data.mu - c, data.norming, c_fit=0.0)


def _trend_check(name: str, seq: np.ndarray) -> dict:
    quarter = max(1, seq.size // 4)
    first = float(np.max(seq[:quarter]))
    last = float(np.max(seq[-quarter:]))
    ok = last <= max(first, 1e-12)
    return {
        "name": name,
        "status": "pass" if ok else "warn",
        "detail": f"first-quarter max {first:.3e}, last-quarter max {last:.3e}",
    }


# ---------------------------------------------------------------------------
# Model extension of finite data and the H kernel
# ---------------------------------------------------------------------------


def _extend_data(data: SpectralData, delta: DeltaSequence, n_terms: int,
                 mu_base: np.ndarray, a_base: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, float]:
    """Continue drift-free (mu_n, a_n) past the data by the fitted tail model.

    Eigenvalues extend as omega, the unperturbed ones.  Norming constants extend
    through the difference coefficient gamma_n = 1/k_n - 1/k_n(base), the
    only combination the kernels depend on: fitting gamma_n ~ gamma/omega^2
    from the data tail makes data identical to the base cancel exactly.
    """
    if n_terms < data.count:
        raise ConfigError(f"n_terms={n_terms} is below the data count {data.count}; "
                          "the pairs past n_terms would be dropped")
    gamma = _fit_gamma(data, delta, mu_base, a_base)
    mu = np.empty(n_terms)
    a = np.empty(n_terms)
    m = data.count
    mu[:m] = data.mu
    a[:m] = data.norming
    if n_terms > m:
        om = delta.omega(np.arange(m, n_terms))
        mu[m:] = mu_base[m:]
        inv_k = 1.0 / (a_base[m:] * mu_base[m:]) + gamma / (om * om)
        a[m:] = 1.0 / (inv_k * mu[m:])
    return mu, a, float(gamma)


def _fit_gamma(data: SpectralData, delta: DeltaSequence, mu_base: np.ndarray,
               a_base: np.ndarray) -> float:
    """Tail coefficient of 1/k_n - 1/k_n(base) ~ gamma/omega^2, least squares
    over the last third of the regular (nonzero-mu) indices."""
    hi = min(data.count, mu_base.size)
    if hi < 6:
        return 0.0
    ns = np.arange(2, hi)
    ok = (np.abs(data.mu[ns]) >= ZERO_MU_TOL) & (np.abs(mu_base[ns]) >= ZERO_MU_TOL)
    ns = ns[ok]
    if ns.size < 4:
        return 0.0
    om = delta.omega(ns)
    g = 1.0 / (data.norming[ns] * data.mu[ns]) - 1.0 / (a_base[ns] * mu_base[ns])
    m = max(4, ns.size // 3)
    w = 1.0 / (om[-m:] * om[-m:])
    denom = float(np.dot(w, w))
    return float(np.dot(g[-m:], w) / denom) if denom else 0.0


def _pair_sum(t: np.ndarray, mu_d: np.ndarray, a_d: np.ndarray, mu_b: np.ndarray,
              a_b: np.ndarray) -> np.ndarray:
    """Stable truncated sum of the paired H series plus its constants, over
    all the given terms.

    Terms are differenced before accumulation so identical data/base
    entries cancel exactly.
    """
    out = np.zeros_like(t)
    chunk = max(1, int(4_000_000 // max(t.size, 1)))
    for n0 in range(0, mu_d.size, chunk):
        n1 = min(n0 + chunk, mu_d.size)
        term = (1.0 / a_d[n0:n1, None]) * mucosm1(mu_d[n0:n1, None], t[None, :])
        term -= (1.0 / a_b[n0:n1, None]) * mucosm1(mu_b[n0:n1, None], t[None, :])
        out += term.sum(axis=0)
    reg_d = np.abs(mu_d) >= ZERO_MU_TOL
    reg_b = np.abs(mu_b) >= ZERO_MU_TOL
    const = float(np.sum(1.0 / (a_d[reg_d] * mu_d[reg_d]))
                  - np.sum(1.0 / (a_b[reg_b] * mu_b[reg_b])))
    return out + const


def _halfint_expsum(lam: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_n w_n exp(i lam_n t) at every node t_j = 2*pi*j/L (j = 0..L) of
    the H grid, L = H_GRID_SIZE - 1, for real lam_n >= 0.

    Each frequency is lam = m + 1/2 + e with m its nearest bin, |e| <= 1/2,
    so exp(i lam t) = exp(i t/2) sum_k (i e t)^k/k! exp(i m t).  For each
    Taylor order k the weights w e^k are summed per bin, folded modulo L
    (exact on the grid, where exp(i m t) has period L in m), and one inverse
    FFT sums the bins; Horner's rule in t combines the orders.  Terms binned
    together cancel before any FFT.  The order K is the least one whose
    remainder bound (2 pi max|e|)^(K+1)/(K+1)! is below 1e-17.
    """
    L = H_GRID_SIZE - 1
    m = np.rint(lam - 0.5)
    e = lam - 0.5 - m
    bins = m.astype(np.int64) % L
    x = TWO_PI * float(np.max(np.abs(e), initial=0.0))
    K, bound = 0, x
    while bound >= 1e-17:
        K += 1
        bound *= x / (K + 1)
    coef = np.empty((K + 1, L))
    p = w
    for k in range(K + 1):
        coef[k] = np.bincount(bins, p, minlength=L)
        p = p * e
    acc = np.zeros(H_GRID_SIZE, dtype=complex)
    it = 1j * _H_GRID
    for k in range(K, -1, -1):
        y = scipy.fft.ifft(coef[k])  # takes a real-input path that numpy's ifft lacks
        y *= L
        acc *= it / (k + 1)
        acc[:-1] += y
        acc[-1] += y[0]
    return np.exp(0.5j * _H_GRID) * acc


def _grid_pair_sum(mu_d: np.ndarray, a_d: np.ndarray, mu_b: np.ndarray,
                   a_b: np.ndarray) -> np.ndarray:
    """:func:`_pair_sum` at every node of the H grid.

    Pairs with mu < 1 on either side (zero, negative and the lowest modes)
    are summed directly.  For the rest each term plus its constant is
    w cos(sqrt(mu) t) with w = 1/(a mu), which :func:`_halfint_expsum` sums
    with data weights w and base weights -w.
    """
    low = (mu_d < 1.0) | (mu_b < 1.0)
    hi = ~low
    lam = np.sqrt(np.concatenate([mu_d[hi], mu_b[hi]]))
    w = np.concatenate([1.0 / (a_d[hi] * mu_d[hi]), -1.0 / (a_b[hi] * mu_b[hi])])
    return (_pair_sum(_H_GRID, mu_d[low], a_d[low], mu_b[low], a_b[low])
            + _halfint_expsum(lam, w).real)


class HFunction:
    """Evaluator of the spectral difference kernel H on [0, 2*pi], for
    drift-free data.

    Deterministic for fixed inputs: construction precomputes H on the
    uniform grid t_j = 2*pi*j/L (L = H_GRID_SIZE - 1) and fits a cubic
    spline; evaluation of H, or of H' by :meth:`derivative`, takes the cell
    of t directly as floor(t L / (2 pi)) (no search, the grid being
    uniform), gathers that cell's four spline coefficients in one pass and
    applies Horner's rule in place.  On the grid, pairs with mu < 1 are
    summed directly and every other term by FFTs of its Taylor expansion
    about the nearest half-integer frequency (:func:`_halfint_expsum`); the
    half-integer partial sum of the tail model takes one FFT.  With no drift
    the tail past n_terms converges absolutely, so H is continuous up to
    t = 2*pi and the spline serves the whole interval.
    """

    def __init__(self, data: SpectralData, beta: BoundaryAngle | float,
                 n_terms: int = DEFAULT_N_TERMS, *, delta: DeltaSequence | None = None):
        beta = as_angle(beta)
        if n_terms < 8:
            raise ConfigError(f"n_terms={n_terms} too small: the H series needs at least 8 terms")
        if delta is None or delta.n_max < n_terms:
            delta = delta_sequence(beta, n_terms)
        self.n_terms = int(n_terms)
        self.delta = delta

        base = unperturbed_spectrum(beta, n_terms, delta)
        self.mu_b, self.a_b = base.mu, base.norming
        self.mu_d, self.a_d, self.gamma_hat = _extend_data(
            data, delta, n_terms, self.mu_b, self.a_b)

        zero_d = np.abs(self.mu_d[:data.count]) < ZERO_MU_TOL
        zero_b = np.abs(self.mu_b[:2]) < ZERO_MU_TOL
        has_zero_d = bool(zero_d.any())
        has_zero_b = bool(zero_b.any())
        self.branch = {
            (False, False): "regular",
            (True, False): "zero-in-data",
            (False, True): "zero-in-unperturbed",
            (True, True): "zero-in-both",
        }[(has_zero_d, has_zero_b)]

        vals = (_grid_pair_sum(self.mu_d, self.a_d, self.mu_b, self.a_b)
                + self._tail_correction())
        # (L, 4): per cell, the cubic to constant coefficients side by side
        self._coef = np.ascontiguousarray(CubicSpline(_H_GRID, vals).c.T)

    # -- summation pieces ---------------------------------------------------

    def _partial_halfint(self) -> np.ndarray:
        """Partial sum over n = 2..n_terms-1 of cos((n+1/2)t)/(n+1/2)^2 on the
        H grid."""
        om = np.arange(2, self.n_terms) + 0.5
        return _halfint_expsum(om, 1.0 / (om * om)).real

    def _tail_correction(self) -> np.ndarray:
        """Closed-form estimate of the truncated tail on the H grid: the
        gamma/omega^2 cosine series of the model, at half-integer
        frequencies."""
        return self.gamma_hat * (cos_halfint_closed(_H_GRID) - self._partial_halfint())

    # -- evaluation ---------------------------------------------------------

    def _cells(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Offset of each t into its grid cell (flattened), that cell's
        spline coefficients, and t as an array (for the output shape)."""
        t_arr = np.asarray(t, dtype=float)
        t1 = t_arr.ravel()  # 1-d, so that every step below can write into its buffers
        lo = float(np.minimum.reduce(t1, initial=np.inf))
        hi = float(np.maximum.reduce(t1, initial=-np.inf))
        if not (lo >= -1e-12 and hi <= TWO_PI + 1e-12):  # NaN fails too
            raise DomainError(f"H evaluated outside [0, 2*pi] (t from {lo:.6g} to {hi:.6g})")
        if lo < 0.0 or hi > TWO_PI:
            t1 = np.clip(t1, 0.0, TWO_PI)
        L = H_GRID_SIZE - 1
        s = t1 * (L / TWO_PI)
        cell = s.astype(np.intp)  # L only at t = 2*pi, clipped to the last cell L - 1
        np.subtract(t1, _H_GRID[:L].take(cell, out=s, mode="clip"), out=s)
        return s, self._coef.take(cell, axis=0, mode="clip"), t_arr

    def __call__(self, t):
        s, c, t_arr = self._cells(t)
        out = c[:, 0] * s
        for k in (1, 2):  # Horner's rule, in place
            out += c[:, k]
            out *= s
        out += c[:, 3]
        return out.reshape(t_arr.shape) if t_arr.ndim else float(out[0])

    def derivative(self, t):
        """H'(t) from the same spline: (3 c0 s + 2 c1) s + c2 in each cell."""
        s, c, t_arr = self._cells(t)
        out = 3.0 * c[:, 0] * s
        out += 2.0 * c[:, 1]
        out *= s
        out += c[:, 2]
        return out.reshape(t_arr.shape) if t_arr.ndim else float(out[0])

    def eval_direct(self, t):
        """Truncated summation without the dense-grid cache or tail model."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = _pair_sum(t_arr, self.mu_d, self.a_d, self.mu_b, self.a_b)
        return out if np.ndim(t) else float(out[0])

    def truncation_tail_bound(self) -> float:
        """Generous bound on |true tail| of the direct n_terms-term sum, at
        every t: twice the model's sum of |gamma|/omega^2 past n_terms."""
        return 2.0 * abs(self.gamma_hat) / self.n_terms


def build_H(data: SpectralData, beta: BoundaryAngle | float,
            n_terms: int = DEFAULT_N_TERMS, *, delta: DeltaSequence | None = None) -> HFunction:
    """Construct the H evaluator (see :class:`HFunction`) for drift-free
    data, such as the pipeline's data shifted by their fitted drift constant;
    any ``c_fit`` the data carry is not read."""
    return HFunction(data, beta, n_terms, delta=delta)


@dataclass(frozen=True)
class FKernel:
    """Symmetric kernel F(x,t) = (H(|x-t|) - H(x+t))/2 on [0, pi]^2."""

    H: HFunction

    def __call__(self, x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        return 0.5 * (self.H(np.abs(x - t)) - self.H(x + t))

    @property
    def branch(self) -> str:
        return self.H.branch


def build_F(H: HFunction) -> FKernel:
    return FKernel(H)


# ---------------------------------------------------------------------------
# Nystrom solve of the reconstruction integral equation
# ---------------------------------------------------------------------------


@dataclass
class GLRow:
    """Solved row P(x, .) on Gauss nodes of [0, x], with its natural
    interpolant P(x, t) = -F(x,t) - sum_k w_k P_k F(t_k, t).

    ``f`` holds F(x, t_k) at the nodes (the right-hand side, negated) and
    ``f_xx`` holds F(x, x), both from the row's own kernel pass."""

    x: float
    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    f: np.ndarray
    f_xx: float
    cond: float
    lin_residual: float
    F: FKernel

    @cached_property
    def diag(self) -> float:
        """P(x, x), the interpolant at t = x: F(t_k, x) equals the stored
        F(x, t_k) bit for bit, so no kernel value is evaluated again."""
        return float(-self.f_xx - np.dot(self.weights * self.values, self.f))


def _nystrom_system(F: FKernel, x: float, n_quad: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gauss nodes and weights on [0, x], the Nystrom matrix I + A with
    A[j,k] = w_k F(t_k, t_j), and F(x, t_k) followed by F(x, x).

    One H call over one concatenated argument array gives every kernel value:
    the upper triangle of the node matrix, F(x, t_k), and F(x, x) (from H(0)
    and H(2x)).  The triangle is mirrored by a cached gather index:
    |t_j - t_k| and t_j + t_k are symmetric bit for bit, so the matrix is the
    fully evaluated one.  A kernel value that is not finite is refused.
    """
    nodes, weights = gauss_rule(n_quad, 0.0, x)
    j, k, mirror = _upper_triangle(n_quad)
    tj, tk = nodes[j], nodes[k]
    Hv = F.H(np.concatenate([np.abs(tj - tk), np.abs(x - nodes), [0.0],
                             tj + tk, x + nodes, [2.0 * x]]))
    half = Hv.size // 2
    Fv = 0.5 * (Hv[:half] - Hv[half:])  # triangle, then F(x, t_k), then F(x, x)
    finite = np.isfinite(Fv)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise NumericsError(f"non-finite kernel value {Fv[bad]} in the Nystrom row at x={x:.4f}")
    A = Fv[mirror] * weights[None, :]  # row j, column k: w_k F(t_k, t_j)
    A.ravel()[::n_quad + 1] += 1.0  # the identity, added on the diagonal in place
    return nodes, weights, A, Fv[j.size:]


def solve_gl(F: FKernel, x: float, n_quad: int = DEFAULT_N_QUAD) -> GLRow:
    """Dense Nystrom solve of the second-kind equation at one x.

    (I + A) p = -f with A[j,k] = w_k F(t_k, t_j), f_j = F(x, t_j), assembled
    by :func:`_nystrom_system`.  One LU factorization serves the solve and a
    1-norm condition estimate (LAPACK gecon, Hager-Higham), which is checked
    before the solve: an estimate above CONDITION_LIMIT signals inadmissible
    data (the continuous operator is invertible for admissible inputs).  The
    LAPACK routines getrf, gecon and getrs are called directly.
    """
    if not (0.0 < x <= PI):
        raise ConfigError(f"x={x} outside (0, pi]")
    if n_quad < 16:
        raise ConfigError(f"n_quad={n_quad}: must be at least 16")
    nodes, weights, A, fx = _nystrom_system(F, x, n_quad)
    lu, piv, info = dgetrf(A)
    _check_info("getrf", info, x)
    rcond, info = dgecon(lu, np.abs(A).sum(axis=0).max(), norm="1")
    _check_info("gecon", info, x)
    cond = 1.0 / rcond if rcond > 0.0 else np.inf  # rcond 0: exactly singular (getrf info > 0)
    if not cond <= CONDITION_LIMIT:
        raise AdmissibilityError(
            f"ill-posed data: Nystrom 1-norm condition estimate {cond:.3e} at x={x:.4f} "
            f"exceeds {CONDITION_LIMIT:.0e}")
    rhs = -fx[:-1]  # a fresh array: a GLRow must not keep the kernel values alive
    p, info = dgetrs(lu, piv, rhs)
    _check_info("getrs", info, x)
    resid = float(np.max(np.abs(A @ p - rhs)))
    return GLRow(float(x), nodes, weights, p, -rhs, float(fx[-1]), cond, resid, F)


def _check_info(routine: str, info: int, x: float) -> None:
    """Refuse a negative LAPACK info: an illegal argument to the routine."""
    if info < 0:
        raise NumericsError(f"{routine}: illegal value in argument {-info} at x={x:.4f}")


@lru_cache(maxsize=None)
def _upper_triangle(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices (j, k), j <= k, of the upper triangle of an n x n matrix, and
    the n x n index of each entry's position in that triangle (its mirror
    below the diagonal included); read-only because the cache hands the same
    arrays to every caller."""
    j, k = np.triu_indices(n)
    mirror = np.empty((n, n), dtype=np.intp)
    mirror[j, k] = mirror[k, j] = np.arange(j.size)
    for a in (j, k, mirror):
        a.flags.writeable = False
    return j, k, mirror


class KernelField:
    """Rows of the transformation kernel on an x-grid, solved lazily.

    Rows for arbitrary x are solved on demand and cached, so downstream
    consumers (solution reconstruction at eigenvalues, consistency
    quadratures on a Gauss x-grid) can share the same field.
    """

    def __init__(self, F: FKernel, x_nodes: np.ndarray | None = None,
                 n_quad: int = DEFAULT_N_QUAD):
        self.F = F
        self.x_nodes = (np.linspace(0.0, PI, DEFAULT_X_NODES)
                        if x_nodes is None else np.asarray(x_nodes, dtype=float))
        if self.x_nodes.size < 5:
            # a floor of the CLI contract (fewer than five --x-nodes exit 64)
            raise ConfigError(f"x_nodes={self.x_nodes.size}: the kernel field needs at least 5 nodes")
        if self.x_nodes[0] != 0.0:
            raise ConfigError(f"x grid must start at 0, got first node {float(self.x_nodes[0])!r}")
        self.n_quad = int(n_quad)
        self._rows: dict[float, GLRow] = {}

    def row(self, x: float) -> GLRow:
        key = round(float(x), 12)
        row = self._rows.get(key)
        if row is None:
            row = solve_gl(self.F, x, self.n_quad)
            self._rows[key] = row
        return row

    def diag(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return self.row(x).diag

    @property
    def diagonal(self) -> np.ndarray:
        return np.array([self.diag(x) for x in self.x_nodes])

    @property
    def condition_max(self) -> float:
        return max(r.cond for r in self._rows.values())

    def phi(self, x, mus) -> np.ndarray:
        """phi(x, mu) = s(x) + integral of P(x,t) s(t) dt over [0, x] for each
        mu and x, with s = sin(sqrt(mu) t)/sqrt(mu); phi(0, mu) = 0.

        The one rebuild of the solutions from the kernel: a scalar x gives a
        vector over mu, an array of x a (mu, x) matrix.  The x-nodes are
        taken in blocks of at most PHI_BLOCK mu values x x-nodes x row nodes.
        """
        mus = np.atleast_1d(np.asarray(mus, dtype=float))
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros((mus.size, xs.size))
        inside = np.flatnonzero(xs > 0.0)
        step = max(1, PHI_BLOCK // (mus.size * self.n_quad))
        for b0 in range(0, inside.size, step):
            idx = inside[b0:b0 + step]
            rows = [self.row(float(xs[i])) for i in idx]
            nodes = np.stack([r.nodes for r in rows])
            wv = np.stack([r.weights * r.values for r in rows])[:, :, None]
            quad = musin(mus[:, None], nodes[:, None, :]) @ wv  # (x, mu, 1)
            out[:, idx] = musin(mus[:, None], xs[idx]) + quad[:, :, 0].T
        return out if np.ndim(x) else out[:, 0]

    def dphi(self, x: float, mus, p_xx: float | None = None) -> np.ndarray:
        """phi'(x, mu) = c(x) + P(x,x) s(x) + integral of P_x(x,t) s(t) dt for
        each mu, with c = cos(sqrt(mu) t); phi'(0, mu) = 1.  ``p_xx`` is
        P(x,x) when the caller already holds it.

        P_x on the row's nodes solves the x-derivative of the row equation,
        (I + A) P_x = -F_x(x, .) - P(x,x) F(x, .), with
        F_x(x, t) = (H'(x - t) - H'(x + t))/2.  Cached rows keep no LU
        factors, so the row's matrix is assembled and factored again.
        """
        mus = np.atleast_1d(np.asarray(mus, dtype=float))
        if x <= 0.0:
            return np.ones(mus.size)
        row = self.row(x)
        p_xx = row.diag if p_xx is None else p_xx
        A = _nystrom_system(self.F, row.x, self.n_quad)[2]
        dH = self.F.H.derivative(np.concatenate([row.x - row.nodes, row.x + row.nodes]))
        rhs = 0.5 * (dH[row.nodes.size:] - dH[:row.nodes.size]) - p_xx * row.f
        lu, piv, info = dgetrf(A)
        _check_info("getrf", info, row.x)
        px, info = dgetrs(lu, piv, rhs)
        _check_info("getrs", info, row.x)
        return (mucos(mus, x) + p_xx * musin(mus, x)
                + musin(mus[:, None], row.nodes) @ (row.weights * px))

    def diagonal_residual(self, x: float) -> float:
        """Residual of the diagonal identity P(x,x) + F(x,x) + integral of
        P(x,s)F(s,x) ds (the t -> x limit of the row equation), from the
        row's stored F values.  P(x,x) is the Nystrom interpolant at t = x,
        built from these same terms, so the residual re-adds them and
        measures roundoff only; it is not an independent identity."""
        if x <= 0.0:
            return 0.0
        row = self.row(x)
        return float(row.diag + row.f_xx + np.dot(row.weights * row.values, row.f))


def solve_kernel_field(F: FKernel, x_nodes: np.ndarray | None = None,
                       n_quad: int = DEFAULT_N_QUAD) -> KernelField:
    """Solve all rows of the kernel over the x grid (default 129 uniform)."""
    field = KernelField(F, x_nodes, n_quad)
    for x in field.x_nodes:
        if x > 0.0:
            field.row(x)
    return field


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


def recover_q(field: KernelField) -> Potential:
    """Potential from the kernel diagonal on the field's x grid:
    q = 2 d/dx P(x,x).

    The diagonal is differentiated through an interpolating cubic spline,
    with one-sided derivatives at the endpoints.  The grid must be uniformly
    spaced: the result carries trapezoid weights.
    """
    grid = trapezoid_grid(field.x_nodes)
    dspl = CubicSpline(grid.nodes, field.diagonal).derivative()
    return Potential(grid, 2.0 * dspl(grid.nodes))


@dataclass(frozen=True)
class BetaRecovery:
    beta_tilde: float
    cot_beta_tilde: float
    spread: float
    ratios: np.ndarray
    prediction: float       # cot(beta) - P(pi, pi) = cot(beta) - (integral q)/2, drift-free
    prediction_gap: float

    def __post_init__(self):
        object.__setattr__(self, "ratios", np.asarray(self.ratios, dtype=float))


def recover_beta(field: KernelField, data: SpectralData) -> BetaRecovery:
    """Boundary angle from the constancy of -phi'(pi, mu_n)/phi(pi, mu_n).

    The median ratio over the first K = min(8, max(5, count // 4))
    eigenvalues gives cot of the recovered angle; the spread doubles as a
    data-consistency diagnostic and raises when the ratios disagree beyond
    1e-2 relative.  Expects drift-free data, the eigenvalues of the field's
    own problem: the prediction carries no drift term.
    """
    mus = data.mu[:min(8, max(5, data.count // 4))]
    d_pi = field.diag(PI)  # also feeds the prediction; evaluated once
    ratios = -field.dphi(PI, mus, d_pi) / field.phi(PI, mus)
    med = float(np.median(ratios))
    dev = np.abs(ratios - med)
    spread = float(np.max(dev))
    if spread > 1e-2 * (1.0 + abs(med)):
        n = int(np.argmax(dev))
        raise DataConsistencyError(
            f"endpoint ratios disagree (spread {spread:.3e}, worst at index {n}, "
            f"mu={mus[n]:.6g}); data are not from a single problem")
    beta_tilde = float(np.pi / 2.0 - np.arctan(med))  # arccot into (0, pi)
    prediction = as_angle(data.beta).cot - d_pi  # P(pi, pi) is half the integral of q
    return BetaRecovery(beta_tilde, med, spread, ratios, prediction,
                        abs(med - prediction))


def consistency_suite(field: KernelField, data: SpectralData) -> dict:
    """Post-hoc identities: diagonal residual, completeness defect of the
    rebuilt solutions for f(x)=x and f(x)=sin(x), and their Gram matrix
    against the data's norming constants, over the first 20 pairs on a
    64-node Gauss x-grid.  The rebuilt solutions have frequencies up to
    sqrt(mu_19) (about 20), so the integrands are smooth with frequencies up
    to about 40 over [0, pi], which a 64-node Gauss rule integrates to
    roundoff.  Expects drift-free data, the eigenvalues of the field's own
    problem.

    The diagonal residual is roundoff only (2.8e-17 on the bundled
    example): P(x,x) is the Nystrom interpolant at t = x, built from the
    same terms the residual re-adds, so it checks the arithmetic, not the
    data.  The completeness and Gram defects are the independent checks."""
    k_terms = min(20, data.count)
    diag_res = max(abs(field.diagonal_residual(x)) for x in field.x_nodes)

    xg, wg = gauss_rule(64, 0.0, PI)
    phi_mat = field.phi(xg, data.mu[:k_terms])

    a = data.norming[:k_terms]
    parseval = {}
    for name, f in (("x", xg.copy()), ("sin", np.sin(xg))):
        f2 = float(np.dot(wg, f * f))
        coef = phi_mat @ (wg * f)
        parseval[name] = abs(f2 - float(np.sum(coef * coef / a))) / f2

    G = (phi_mat * wg) @ phi_mat.T
    denom = np.sqrt(np.outer(a, a))
    off = np.abs(G - np.diag(np.diag(G))) / denom
    gram_off = float(np.max(off)) if k_terms > 1 else 0.0
    gram_diag = float(np.max(np.abs(np.diag(G) - a) / a))

    return {
        "diagonal_residual_max": float(diag_res),
        "parseval_defect": parseval,
        "gram_offdiag_max": gram_off,
        "gram_diag_rel_max": gram_diag,
        "condition_max": field.condition_max,
        "branch": field.F.branch,
        "k_terms": k_terms,
    }
