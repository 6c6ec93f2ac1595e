"""Inverse solver: from two spectral sequences to the potential and the
recovered boundary angle.

Pipeline: admissibility checks -> difference kernel H(t) built from the data
against the unperturbed (q = 0) spectrum for the same angle -> symmetric
kernel F(x,t) = (H(|x-t|) - H(x+t))/2 -> per-x Fredholm solves (Nystrom,
Gauss-Legendre on [0, x]) for the transformation kernel row P(x, .) ->
q(x) = 2 d/dx P(x,x), solutions phi rebuilt through the kernel, and the
boundary angle from the constancy of phi'(pi)/phi(pi) over eigenvalues.

H is tabulated on a uniform grid of [0, 2*pi] and summed in two parts.
Pairs with mu < 1 (zero, negative and the lowest modes) take the
numerically stable form (cos(lt)-1)/mu plus per-index constants, which turns
the degenerate zero-eigenvalue branches into exact limits of the regular
formula.  Every other term is cos(lt)/(a mu) with l a half-integer plus an
offset of at most 1/2; a Taylor series in the offset turns these sums into
one FFT per order, with data and base terms cancelling in shared bins before
any transform.  The conditionally convergent part of the truncation tail
(drift constant times the sine-over-frequency series) is restored from
closed forms, and the leading absolutely convergent cosine tail from the
fitted coefficient model.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgecon

from .asymptotics import (
    DeltaSequence,
    cos_halfint_closed,
    delta_sequence,
    extract_s,
    fit_c,
    fit_c_spread,
    signed_sqrt,
    sin_halfint_closed,
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
from .errors import AdmissibilityError, ConfigError, DataConsistencyError, DomainError

TWO_PI = 2.0 * PI
DEFAULT_N_TERMS = 2000
DEFAULT_N_QUAD = 96
DEFAULT_X_NODES = 129
CONDITION_LIMIT = 1e8   # on the 1-norm condition estimate of each Nystrom matrix
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
    strays more than 0.25 from n + delta_n over the final quarter.  Trend
    violations of the remainder sequences only warn, since a finite prefix
    cannot prove a limit.
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
    tail_ok = False
    if mono and pos:
        q_start = max(2, (3 * data.count) // 4)
        ns = np.arange(q_start, data.count)
        om = delta.omega(ns)
        lam = signed_sqrt(data.mu[ns])
        tail_gap = float(np.max(np.abs(lam - om))) if ns.size else np.inf
        tail_ok = tail_gap < 0.25
        checks.append({
            "name": "tail-tracks-unperturbed-order",
            "status": "pass" if tail_ok else "fail",
            "detail": f"max |lambda_n - (n+delta_n)| = {tail_gap:.3f} over the final quarter",
        })

        c, l_seq = fit_c(data, delta)
        spread = fit_c_spread(data, delta)
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
                 ) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Continue (mu_n, a_n) past the data by the fitted tail model.

    Eigenvalues extend as omega + c/(2 omega).  Norming constants extend
    through the difference coefficient gamma_n = 1/k_n - 1/k_n(base), the
    only combination the kernels depend on: fitting gamma_n ~ gamma/omega^2
    from the data tail makes data identical to the base cancel exactly.
    """
    if n_terms < data.count:
        raise ConfigError(f"n_terms={n_terms} is below the data count {data.count}; "
                          "the pairs past n_terms would be dropped")
    c = data.c_fit
    if c is None:
        c = fit_c(data, delta)[0] if data.count >= 12 else 0.0
    gamma = _fit_gamma(data, delta, mu_base, a_base)
    mu = np.empty(n_terms)
    a = np.empty(n_terms)
    m = data.count
    mu[:m] = data.mu
    a[:m] = data.norming
    if n_terms > m:
        ns = np.arange(m, n_terms)
        om = delta.omega(ns)
        lam = om + c / (2.0 * om)
        mu[m:] = lam * lam
        inv_k = 1.0 / (a_base[m:] * mu_base[m:]) + gamma / (om * om)
        a[m:] = 1.0 / (inv_k * mu[m:])
    return mu, a, float(c), float(gamma)


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
    for k in range(K, -1, -1):
        y = L * np.fft.ifft(coef[k])
        acc = acc * (1j * _H_GRID / (k + 1)) + np.append(y, y[0])
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


def _end_terms(n_terms: int) -> int:
    """Terms in the direct sum for H(2*pi), which reaches past n_terms; the
    delta sequence must be at least this long."""
    return max(4 * n_terms, 16384)


class HFunction:
    """Evaluator of the spectral difference kernel H on [0, 2*pi].

    Deterministic for fixed inputs: construction precomputes H on the
    uniform grid t_j = 2*pi*j/L (L = H_GRID_SIZE - 1) and fits a cubic
    spline; evaluation takes the cell of t directly as floor(t L / (2 pi))
    (no search, the grid being uniform) and applies Horner's rule to that
    cell's spline coefficients.  On the grid, pairs with mu < 1 are
    summed directly and every other term by FFTs of its Taylor expansion
    about the nearest half-integer frequency (:func:`_halfint_expsum`); the
    half-integer partial sums of the tail model take one FFT each.  The
    exact endpoint t = 2*pi, where the conditionally convergent part jumps,
    is summed directly from the extended model.
    """

    def __init__(self, data: SpectralData, beta: BoundaryAngle | float,
                 n_terms: int = DEFAULT_N_TERMS, *, delta: DeltaSequence | None = None):
        beta = as_angle(beta)
        if n_terms < 8:
            raise ConfigError("n_terms too small")
        if delta is None or delta.n_max < _end_terms(n_terms):
            delta = delta_sequence(beta, _end_terms(n_terms))
        self.beta = beta
        self.data = data
        self.n_terms = int(n_terms)
        self.delta = delta

        base = unperturbed_spectrum(beta, n_terms, delta)
        self.mu_b, self.a_b = base.mu, base.norming
        self.mu_d, self.a_d, self.c, self.gamma_hat = _extend_data(
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
        self._coef = CubicSpline(_H_GRID, vals).c   # (4, L): cubic to constant, per cell
        self._h_end = self._end_value()

    # -- summation pieces ---------------------------------------------------

    def _partial_halfint(self) -> tuple[np.ndarray, np.ndarray]:
        """Partial sums over n = 2..n_terms-1 of sin((n+1/2)t)/(n+1/2) and
        cos((n+1/2)t)/(n+1/2)^2 on the H grid."""
        om = np.arange(2, self.n_terms) + 0.5
        return _halfint_expsum(om, 1.0 / om).imag, _halfint_expsum(om, 1.0 / (om * om)).real

    def _tail_correction(self) -> np.ndarray:
        """Closed-form estimate of the truncated tail on the H grid (valid on
        (0, 2*pi); both factors carry a vanishing prefactor at t = 0)."""
        t = _H_GRID
        s1, sc = self._partial_halfint()
        cot = self.beta.cot
        tail_sin = (sin_halfint_closed(t) - s1) + (t * cot / PI) * (cos_halfint_closed(t) - sc)
        tail_cos = cos_halfint_closed(t) - sc
        return (-(self.c * t / PI) * tail_sin
                + (self.gamma_hat - self.c * self.c * t * t / (4.0 * PI)) * tail_cos)

    def _end_value(self) -> float:
        """Series value at exactly t = 2*pi (the conditional part jumps there),
        summed directly from the extended model."""
        n_end = _end_terms(self.n_terms)
        base = unperturbed_spectrum(self.beta, n_end, self.delta)
        mu_d, a_d, _, _ = _extend_data(self.data, self.delta, n_end, base.mu, base.norming)
        total = float(_pair_sum(np.array([TWO_PI]), mu_d, a_d, base.mu, base.norming)[0])
        # residual beyond n_end: gamma/omega^2 cosine part ~ -gamma_hat/n_end,
        # drift part ~ +4 c cot(beta)/n_end
        return total + (4.0 * self.c * self.beta.cot - self.gamma_hat) / n_end

    # -- evaluation ---------------------------------------------------------

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        lo = float(np.min(t_arr, initial=np.inf))
        hi = float(np.max(t_arr, initial=-np.inf))
        if not (lo >= -1e-12 and hi <= TWO_PI + 1e-12):  # NaN fails too
            raise DomainError(f"H evaluated outside [0, 2*pi] (t from {lo:.6g} to {hi:.6g})")
        if lo < 0.0 or hi > TWO_PI:
            t_arr = np.clip(t_arr, 0.0, TWO_PI)
        L = H_GRID_SIZE - 1
        cell = np.minimum((t_arr * (L / TWO_PI)).astype(np.intp), L - 1)
        s = t_arr - _H_GRID[cell]
        c = self._coef
        out = ((c[0][cell] * s + c[1][cell]) * s + c[2][cell]) * s + c[3][cell]
        if hi >= TWO_PI - 1e-12:
            out = np.where(np.abs(t_arr - TWO_PI) <= 1e-12, self._h_end, out)
        return out if out.ndim else float(out)

    def eval_direct(self, t):
        """Truncated summation without the dense-grid cache or tail model."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = _pair_sum(t_arr, self.mu_d, self.a_d, self.mu_b, self.a_b)
        return out if np.ndim(t) else float(out[0])

    def truncation_tail_bound(self, t: float) -> float:
        """Generous bound on |true tail| of the direct n_terms-term sum at t."""
        t = float(t)
        N = self.n_terms
        s = max(abs(np.sin(t / 2.0)), abs(np.sin((TWO_PI - t) / 2.0)), 1.0 / N)
        cond_part = 2.0 * abs(self.c) * t / PI * min(2.0 / (N * s), PI / 2.0)
        abs_part = 2.0 * (abs(self.gamma_hat) + abs(self.c) ** 2 * t * t / (4.0 * PI)) / N
        return cond_part + abs_part


def build_H(data: SpectralData, beta: BoundaryAngle | float,
            n_terms: int = DEFAULT_N_TERMS, *, delta: DeltaSequence | None = None) -> HFunction:
    """Construct the H evaluator (see :class:`HFunction`)."""
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

    def extend(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        Fnt = self.F(self.nodes[:, None], t[None, :])
        quad = (self.weights * self.values) @ Fnt
        return -self.F(self.x, t) - quad

    @cached_property
    def diag(self) -> float:
        """P(x, x), the interpolant at t = x: F(t_k, x) equals the stored
        F(x, t_k) bit for bit, so no kernel value is evaluated again."""
        return float(-self.f_xx - np.dot(self.weights * self.values, self.f))


def solve_gl(F: FKernel, x: float, n_quad: int = DEFAULT_N_QUAD) -> GLRow:
    """Dense Nystrom solve of the second-kind equation at one x.

    (I + A) p = -f with A[j,k] = w_k F(t_k, t_j), f_j = F(x, t_j).  One H
    call over one concatenated argument array gives every kernel value the
    row needs: the upper triangle of the node matrix, f, and F(x, x) (from
    H(0) and H(2x)).  The triangle is mirrored by a cached gather index:
    |t_j - t_k| and t_j + t_k are symmetric bit for bit, so the matrix is the
    fully evaluated one.  One LU factorization serves the solve and a 1-norm
    condition estimate (LAPACK gecon, Hager-Higham), which is checked before
    the solve: an estimate above CONDITION_LIMIT signals inadmissible data
    (the continuous operator is invertible for admissible inputs).
    """
    if not (0.0 < x <= PI):
        raise ConfigError(f"x={x} outside (0, pi]")
    if n_quad < 16:
        raise ConfigError(f"n_quad={n_quad}: must be at least 16")
    nodes, weights = gauss_rule(n_quad, 0.0, x)
    j, k, mirror = _upper_triangle(n_quad)
    tj, tk = nodes[j], nodes[k]
    Hv = F.H(np.concatenate([np.abs(tj - tk), np.abs(x - nodes), [0.0],
                             tj + tk, x + nodes, [2.0 * x]]))
    half = Hv.size // 2
    Fv = 0.5 * (Hv[:half] - Hv[half:])  # triangle, then F(x, t_k), then F(x, x)
    A = np.eye(n_quad) + Fv[mirror] * weights[None, :]  # row j, column k: w_k F(t_k, t_j)
    lu = lu_factor(A)
    rcond, _ = dgecon(lu[0], np.linalg.norm(A, 1), norm="1")
    cond = 1.0 / rcond if rcond > 0.0 else np.inf
    if not cond <= CONDITION_LIMIT:
        raise AdmissibilityError(
            f"ill-posed data: Nystrom 1-norm condition estimate {cond:.3e} at x={x:.4f} "
            f"exceeds {CONDITION_LIMIT:.0e}")
    rhs = -Fv[j.size:-1]  # a fresh array: a GLRow must not keep Fv alive
    p = lu_solve(lu, rhs)
    resid = float(np.max(np.abs(A @ p - rhs)))
    return GLRow(float(x), nodes, weights, p, -rhs, float(Fv[-1]), cond, resid, F)


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
            # the five-node px_at stencil at pi needs four nodes below it
            raise ConfigError(f"x_nodes={self.x_nodes.size}: the kernel field needs at least 5 nodes")
        if self.x_nodes[0] != 0.0:
            raise ConfigError("x grid must start at 0")
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

    @property
    def x_step(self) -> float:
        return float(self.x_nodes[1] - self.x_nodes[0])

    def p_at(self, x: float, t: np.ndarray) -> np.ndarray:
        if x <= 0.0:
            return np.zeros_like(np.asarray(t, dtype=float))
        return self.row(x).extend(t)

    def px_at(self, x: float, t: np.ndarray, h: float | None = None) -> np.ndarray:
        """d/dx of the kernel at fixed t values: five-point, fourth order,
        one-sided near the endpoints."""
        h = self.x_step if h is None else h
        offs, coef = _stencil(x, h)
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for o, c in zip(offs, coef):
            out = out + c * self.p_at(x + o * h, t)
        return out / h

    def phi(self, x: float, mus) -> np.ndarray:
        """phi(x, mu) = s(x) + integral of P(x,t) s(t) dt over [0, x] for each
        mu, with s = sin(sqrt(mu) t)/sqrt(mu); phi(0, mu) = 0."""
        mus = np.atleast_1d(np.asarray(mus, dtype=float))
        if x <= 0.0:
            return np.zeros(mus.size)
        row = self.row(x)
        return musin(mus, x) + musin(mus[:, None], row.nodes) @ (row.weights * row.values)

    def dphi(self, x: float, mus, p_xx: float | None = None) -> np.ndarray:
        """phi'(x, mu) = c(x) + P(x,x) s(x) + integral of P_x(x,t) s(t) dt for
        each mu, with c = cos(sqrt(mu) t); phi'(0, mu) = 1.  ``p_xx`` is
        P(x,x) when the caller already holds it."""
        mus = np.atleast_1d(np.asarray(mus, dtype=float))
        if x <= 0.0:
            return np.ones(mus.size)
        row = self.row(x)
        px = self.px_at(x, row.nodes)
        p_xx = self.diag(x) if p_xx is None else p_xx
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


_CENTRAL = (np.array([-2, -1, 0, 1, 2]), np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0)
_FWD = (np.array([0, 1, 2, 3, 4]), np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0)
_FWD1 = (np.array([-1, 0, 1, 2, 3]), np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0)
_BWD = (np.array([-4, -3, -2, -1, 0]), np.array([3.0, -16.0, 36.0, -48.0, 25.0]) / 12.0)
_BWD1 = (np.array([-3, -2, -1, 0, 1]), np.array([-1.0, 6.0, -18.0, 10.0, 3.0]) / 12.0)


def _stencil(x: float, h: float):
    if x - 2 * h < 0.0:
        return _FWD if x - h < 0.0 else _FWD1
    if x + 2 * h > PI + 1e-12:
        return _BWD if x + h > PI + 1e-12 else _BWD1
    return _CENTRAL


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
    prediction: float       # cot(beta) + (pi c - integral q)/2 from the tail fit
    prediction_gap: float

    def __post_init__(self):
        object.__setattr__(self, "ratios", np.asarray(self.ratios, dtype=float))


def recover_beta(field: KernelField, data: SpectralData) -> BetaRecovery:
    """Boundary angle from the constancy of -phi'(pi, mu_n)/phi(pi, mu_n).

    The median ratio over the first K = min(8, max(5, count // 4))
    eigenvalues gives cot of the recovered angle; the spread doubles as a
    data-consistency diagnostic and raises when the ratios disagree beyond
    1e-2 relative.
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
    beta = as_angle(data.beta)
    c = data.c_fit if data.c_fit is not None else 0.0
    q_int = 2.0 * d_pi  # diagonal carries the integral of the recovered q
    prediction = beta.cot + 0.5 * (PI * c - q_int)
    return BetaRecovery(beta_tilde, med, spread, ratios, prediction,
                        abs(med - prediction))


def consistency_suite(field: KernelField, data: SpectralData) -> dict:
    """Post-hoc identities: diagonal residual, completeness defect of the
    rebuilt solutions for f(x)=x and f(x)=sin(x), and their Gram matrix
    against the data's norming constants, over the first 20 pairs on a
    64-node Gauss x-grid.  The rebuilt solutions have frequencies up to
    sqrt(mu_19) (about 20), so the integrands are smooth with frequencies up
    to about 40 over [0, pi], which a 64-node Gauss rule integrates to
    roundoff.

    The diagonal residual is roundoff only (2.8e-17 on the bundled
    example): P(x,x) is the Nystrom interpolant at t = x, built from the
    same terms the residual re-adds, so it checks the arithmetic, not the
    data.  The completeness and Gram defects are the independent checks."""
    k_terms = min(20, data.count)
    diag_res = max(abs(field.diagonal_residual(x)) for x in field.x_nodes)

    xg, wg = gauss_rule(64, 0.0, PI)
    phi_mat = np.column_stack([field.phi(float(x), data.mu[:k_terms]) for x in xg])

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
