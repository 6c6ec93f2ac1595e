"""Inverse solver: from two spectral sequences to the potential and the
recovered boundary angle.

Pipeline: admissibility checks (which also fit the eigenvalue tail
lambda_n ~ omega_n + c/(2 omega_n) + kappa/omega_n^3) -> difference kernel
H(t) of the data against the unperturbed (q = 0) spectrum for the same
angle -> F(x,t) = (H(|x-t|) - H(x+t))/2 -> the main equation
P(x,t) + F(x,t) + int_0^x P(x,s) F(s,t) ds = 0 -> q(x) = 2 d/dx P(x,x),
solutions phi rebuilt through the kernel, and the boundary angle from the
constancy of phi'(pi)/phi(pi) over eigenvalues.  In code the chain is
build_H -> solve_kernel_field(H, x_nodes): the field reads H's tables, and
F at points off its grids is the field's :meth:`KernelField.F`.

The main equation is discretized by the trapezoid rule on the nodes
t_j = j h, h = pi/M, M = x_nodes - 1, where the slope jump of F along t = s
falls on a node, so the error is a series in h^2; one Richardson step
between the grids h and h/2 leaves O(h^4) (Atkinson, The Numerical Solution
of Integral Equations of the Second Kind, CUP 1997, ch. 4).  F on a grid is
Toeplitz minus Hankel, read as sliding windows of one H table with no index
matrix.  One Cholesky factor L of I + h F per grid gives the whole diagonal
from its pivots, the discrete form of q = -2 (log det(I + F_x))'' (Dyson,
Commun. Math. Phys. 47, 1976), and the refusal of data that are not
positive; its inverse L^(-1), taken once per grid (trtri), gives every row in
O(M^2) with no solve, the condition number, and the x-derivative of a row by
two triangular products.  The factor and its inverse overwrite I + h F where
it lies, so a grid keeps only F, L^(-1) and its rows.
The solutions phi are rebuilt at all nodes by one matrix product with the
rows' quadrature weights.

Everything after validate expects drift-free data (c = 0): (mu_n - c, a_n)
are the exact data of q - c, and :func:`invspec.roundtrip.inverse_pipeline`
inverts those and adds c back.  H is tabulated on a uniform grid of
[0, 2*pi]: the modes mu < 1 directly, every other term, the tail model's
partial sum among them, in one FFT sum (see :class:`HFunction`), and the
model's whole series in closed form; H' comes from the same pass.  phi and
phi' share one Richardson rule.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.lapack import dlauum, dpotrf, dtrtri

from .asymptotics import (
    DeltaSequence,
    cos_halfint_closed,
    delta_sequence,
    drift_constant,
    extract_s,
    fit_c_spread,
    shift_spectrum,
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
    Spline,
    as_angle,
    gauss_rule,
    mucos,
    mucosm1,
    musin,
    trapezoid_grid,
    _check_count,
)
from .errors import AdmissibilityError, ConfigError, DataConsistencyError, DomainError, NumericsError

TWO_PI = 2.0 * PI
DEFAULT_N_TERMS = 2000
DEFAULT_X_NODES = 129
CONDITION_LIMIT = 1e8   # on the 1-norm condition number of I + h F
H_GRID_SIZE = 4 * (DEFAULT_X_NODES - 1) + 1   # the H table of the default x grid
# Gregory's corrections to the trapezoid weights at either end, through fourth differences
_GREGORY_END = np.array([-245.0, 462.0, -336.0, 146.0, -27.0]) / 1440.0


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------


def validate(data: SpectralData, beta: BoundaryAngle | float, *,
             delta: DeltaSequence | None = None) -> dict:
    """Admissibility report for (mu_n, a_n) against the given angle.

    Hard failures (block the inverse solve unless forced): non-monotone or
    duplicated eigenvalues, non-positive norming constants, or a tail that
    strays more than 0.25 from n + delta_n over the final quarter, once the
    spectrum is shifted by its drift constant.  Trend violations of the
    remainder sequences only warn, since a finite prefix cannot prove a limit.

    ``c_fit`` and ``kappa`` are the drift constant and the third-order tail
    coefficient of :func:`drift_constant` (None when the fit is skipped).
    A given ``delta`` is used when it reaches n = count + 2.
    """
    beta = as_angle(beta)
    if data.count < 12:
        raise ConfigError(f"validation needs at least 12 data points, got {data.count}")
    if delta is None or delta.n_max < data.count + 2:
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

    c = kappa = None
    if mono and pos:
        c, kappa, l_seq = drift_constant(data, delta)
        shifted = shift_spectrum(data, c)

        q_start = max(2, (3 * data.count) // 4)
        ns = np.arange(q_start, data.count)
        om = delta.omega(ns)
        lam = signed_sqrt(shifted.mu[ns])
        tail_gap = float(np.max(np.abs(lam - om)))
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
        "kappa": kappa,
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
                 mu_base: np.ndarray, a_base: np.ndarray, kappa: float
                 ) -> tuple[np.ndarray, np.ndarray, float]:
    """Continue drift-free (mu_n, a_n) past the data by the fitted tail model.

    Eigenvalues extend as lambda_n^2 with lambda_n = omega_n + kappa/omega_n^3,
    omega_n the unperturbed ones.  Norming constants extend through the
    difference coefficient gamma_n = 1/k_n - 1/k_n(base), the only
    combination the kernels depend on: fitting gamma_n ~ gamma/omega^2 from
    the data tail makes data identical to the base cancel exactly.
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
        mu[m:] = (om + kappa / om**3) ** 2
        inv_k = 1.0 / (a_base[m:] * mu_base[m:]) + gamma / (om * om)
        a[m:] = 1.0 / (inv_k * mu[m:])
    return mu, a, float(gamma)


def _fit_gamma(data: SpectralData, delta: DeltaSequence, mu_base: np.ndarray,
               a_base: np.ndarray) -> float:
    """Tail coefficient of 1/k_n - 1/k_n(base) ~ gamma/omega^2, least squares
    over the last third of the indices n >= 2 with nonzero data mu_n (the
    base's exceed 4 there)."""
    ns = np.arange(2, data.count)
    ns = ns[np.abs(data.mu[ns]) >= ZERO_MU_TOL]
    if ns.size < 4:
        return 0.0
    om = delta.omega(ns)
    g = 1.0 / (data.norming[ns] * data.mu[ns]) - 1.0 / (a_base[ns] * mu_base[ns])
    m = max(4, ns.size // 3)
    w = 1.0 / (om[-m:] * om[-m:])
    return float(np.dot(g[-m:], w) / float(np.dot(w, w)))


def _pair_sum(t: np.ndarray, mu_d: np.ndarray, a_d: np.ndarray, mu_b: np.ndarray,
              a_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable truncated sum of the paired H series plus its constants, over
    all the given terms, and its t-derivative, a sum of -sin(lt)/(a l) terms.

    Terms are differenced before accumulation so identical data/base
    entries cancel exactly.
    """
    sums = []
    for term_of in (mucosm1, lambda mu, tt: -musin(mu, tt)):
        term = (1.0 / a_d[:, None]) * term_of(mu_d[:, None], t[None, :])
        term -= (1.0 / a_b[:, None]) * term_of(mu_b[:, None], t[None, :])
        sums.append(term.sum(axis=0))
    reg_d = np.abs(mu_d) >= ZERO_MU_TOL
    reg_b = np.abs(mu_b) >= ZERO_MU_TOL
    const = float(np.sum(1.0 / (a_d[reg_d] * mu_d[reg_d]))
                  - np.sum(1.0 / (a_b[reg_b] * mu_b[reg_b])))
    return sums[0] + const, sums[1]


def _table_nodes(L: int) -> np.ndarray:
    """The L + 1 nodes t_j = 2*pi*j/L of an H table."""
    return np.linspace(0.0, TWO_PI, L + 1)


def _halfint_expsum(lam: np.ndarray, w: np.ndarray, L: int) -> np.ndarray:
    """sum_n w_rn exp(i lam_n t) for the two rows w_0, w_1 of the real matrix
    w, at every node t_j = 2*pi*j/L (j = 0..L), for real lam_n >= 0: one
    row out per row in.

    Each frequency is lam = m + 1/2 + e with m its nearest bin, |e| <= 1/2,
    so exp(i lam t) = exp(i t/2) sum_k (i e t)^k/k! exp(i m t).  For each
    Taylor order k the weights w e^k are summed per bin, folded modulo L
    (exact on the grid, where exp(i m t) has period L in m), row 0 into the
    real and row 1 into the imaginary part of one complex bin, and one
    inverse FFT (numpy's, all orders in one call) gives Y_k.  As the rows
    are real, their sums are (Y_k(j) + conj Y_k(-j))/2 and
    (Y_k(j) - conj Y_k(-j))/2i: Horner's rule in t combines the orders of
    Y_k(j) and, with -t, of Y_k(-j), and the rows are split once at the end.
    Terms binned together cancel before any FFT.  The order K is the least
    one whose remainder bound (2 pi max|e|)^(K+1)/(K+1)! is below 1e-17.
    """
    t = _table_nodes(L)
    m = np.rint(lam - 0.5)
    e = lam - 0.5 - m
    bins = m.astype(np.int64) % L
    x = TWO_PI * float(np.max(np.abs(e), initial=0.0))
    K, bound = 0, x
    while bound >= 1e-17:
        K += 1
        bound *= x / (K + 1)
    Z = np.empty((K + 1, 2, L + 1), dtype=complex)  # Y_k(j) and Y_k(-j) for j = 0..L, j modulo L
    Y = Z[:, 0, :L]
    w0, w1 = w
    for k in range(K + 1):
        Y[k].real = np.bincount(bins, w0, minlength=L)
        Y[k].imag = np.bincount(bins, w1, minlength=L)
        if k < K:
            w0, w1 = w0 * e, w1 * e
    Y[:] = np.fft.ifft(Y, norm="forward")  # the sums over the bins, unscaled
    Z[:, 0, L] = Z[:, 1, 0] = Y[:, 0]
    Z[:, 1, 1:] = Y[:, ::-1]
    Z[1::2, 1] *= -1.0  # (-i t)^k = (-1)^k (i t)^k
    it = 1j * t
    acc = Z[K]
    for k in range(K - 1, -1, -1):
        acc *= it / (k + 1)
        acc += Z[k]
    out = np.empty((2, L + 1), dtype=complex)
    np.conj(acc[1], out=out[1])
    np.add(acc[0], out[1], out=out[0])
    np.subtract(acc[0], out[1], out=out[1])
    out[1] *= -1j
    out *= 0.5 * np.exp(0.5j * t)
    return out


class HFunction:
    """The spectral difference kernel H on [0, 2*pi], for drift-free data.

    :meth:`tables` gives H and H' on a uniform table; the tail past n_terms
    converges absolutely, so H is continuous up to t = 2*pi.  Construction
    sums no table and splits the terms once: pairs with mu < 1 on either side
    for :func:`_pair_sum`, and every other term w cos(lam t) for one
    :func:`_halfint_expsum` per table, whose rows w and w lam give H and H'
    (data at sqrt(mu) with w = 1/(a mu), base with -w, and the tail model's
    partial sum at n + 1/2, n < n_terms, with -gamma/(n + 1/2)^2, whose whole
    series is added in closed form).
    """

    def __init__(self, data: SpectralData, beta: BoundaryAngle | float,
                 n_terms: int = DEFAULT_N_TERMS, *, delta: DeltaSequence | None = None,
                 kappa: float = 0.0):
        beta = as_angle(beta)
        _check_count("n_terms", n_terms, 8)
        if delta is None or delta.n_max < n_terms:
            delta = delta_sequence(beta, n_terms)
        self.n_terms = int(n_terms)

        base = unperturbed_spectrum(beta, n_terms, delta)
        self.mu_b, self.a_b = base.mu, base.norming
        self.mu_d, self.a_d, self.gamma_hat = _extend_data(
            data, delta, n_terms, self.mu_b, self.a_b, kappa)

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

        low = (self.mu_d < 1.0) | (self.mu_b < 1.0)
        hi = ~low
        self._low = (self.mu_d[low], self.a_d[low], self.mu_b[low], self.a_b[low])
        om = np.arange(2, self.n_terms) + 0.5
        self._lam = np.concatenate([np.sqrt(self.mu_d[hi]), np.sqrt(self.mu_b[hi]), om])
        self._w = np.concatenate([1.0 / (self.a_d[hi] * self.mu_d[hi]),
                                  -1.0 / (self.a_b[hi] * self.mu_b[hi]),
                                  -self.gamma_hat / (om * om)])

    def tables(self, L: int) -> tuple[np.ndarray, np.ndarray]:
        """H and H' at t_j = 2*pi*j/L, j = 0..L, both read-only; H'(0) is the
        limit from the right.  A value that is not finite is refused."""
        t = _table_nodes(L)
        H, dH = _pair_sum(t, *self._low)
        sums = _halfint_expsum(self._lam, np.stack([self._w, self._w * self._lam]), L)
        H += sums[0].real
        H += self.gamma_hat * cos_halfint_closed(t)
        dH -= sums[1].imag
        dH -= self.gamma_hat * sin_halfint_closed(t)
        for vals in (H, dH):
            finite = np.isfinite(vals)
            if not finite.all():
                bad = int(np.argmin(finite))
                raise NumericsError(f"non-finite kernel value {vals[bad]} at t={t[bad]:.4f}")
            vals.flags.writeable = False
        return H, dH


def build_H(data: SpectralData, beta: BoundaryAngle | float,
            n_terms: int = DEFAULT_N_TERMS, *, delta: DeltaSequence | None = None,
            kappa: float = 0.0) -> HFunction:
    """Construct the H kernel (see :class:`HFunction`) for drift-free data,
    such as the pipeline's data shifted by their fitted drift constant; any
    ``c_fit`` the data carry is not read.  ``kappa`` is validate's third-order
    tail coefficient; with 0 the eigenvalues past the data are the base ones."""
    return HFunction(data, beta, n_terms, delta=delta, kappa=kappa)


# ---------------------------------------------------------------------------
# The main equation on a uniform grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrapezoidSystem:
    """The main equation on the nodes t_j = j h, h = pi/M: F(t_i, t_j) for
    i, j = 1..M, the inverse W = L^(-1) of the lower Cholesky factor L of
    G = I + h F, the rows P(t_k, t_j) for k, j = 0..M (lower triangular, zero
    in row and column 0), P(t_k, t_k) for k = 0..M from the pivots, the
    1-norm condition number of G, and the step in the H table per grid step."""

    h: float
    stride: int
    F: np.ndarray
    inv_factor: np.ndarray
    rows: np.ndarray
    diagonal: np.ndarray
    cond: float


def _factor(table: np.ndarray, M: int, stride: int) -> TrapezoidSystem:
    """Assemble G = I + h F from the H table, factor it (LAPACK potrf) and
    invert the factor (trtri): W = L^(-1), all in place.

    With v = table[::stride], F is Toeplitz v[|i-j|] minus Hankel v[i+j]
    over 2 (i, j = 1..M), both read as sliding windows of v, so no index
    matrix is built.  G is exactly symmetric, so G.T is the same matrix in
    Fortran order: potrf factors it where it lies, and trtri inverts that
    factor where it lies, which leaves F, G's buffer (as L then W) and the
    rows the only M x M matrices kept.

    Row k's matrix is the leading block G_k minus (h/2) F[:, k] e_k^T, the
    half weight at its own end, and its right-hand side -F[:, k]; by
    Sherman-Morrison its solution is -y/(1 - h y_k/2) with
    y = G_k^(-1) F[:, k].  As F[:, k] = (G_k e_k - e_k)/h and
    G_k^(-1) e_k = W[k, :k]^T / l_k, with l_k the k-th pivot and W's leading
    block the inverse of L's, y = (e_k - W[k, :k]/l_k)/h: every row at once.
    y_k = (1 - 1/l_k^2)/h, so the pivots alone give the diagonal; in the rows
    it is taken as (F_kk - sum_{j<k} L_kj^2/h)/l_k^2, the same number without
    the cancellation of 1 - 1/l_k^2, which costs eps/h.
    A positive info refuses the data: I + F_x is not positive at x = info h.
    The 1-norm condition number comes from G's column sums, taken before the
    factor overwrites G, and from G^(-1) = W^T W (lauum; trtri then lauum is
    potri), whose upper triangle is zero as potrf cleaned L's.  pocon's
    estimate varies in its last bits with the alignment of its work arrays,
    so reports of identical runs would differ."""
    h = PI / M
    v = table[::stride]
    toeplitz = sliding_window_view(np.concatenate([v[M - 1:0:-1], v[:M]]), M)[::-1]
    F = np.subtract(toeplitz, sliding_window_view(v[2:2 * M + 1], M), out=np.empty((M, M)))
    F *= 0.5
    G = h * F
    G.flat[::M + 1] += 1.0
    work = np.abs(G)
    g_norm = work.sum(axis=0).max()
    factor, info = dpotrf(G.T, lower=1, clean=1, overwrite_a=1)
    _check_info("potrf", info, PI)
    if info > 0:
        raise AdmissibilityError(
            f"data not positive: the Gelfand-Levitan operator I + F_x is not positive "
            f"definite at x={info * h:.4f} (leading minor {info} of the {M}-node trapezoid "
            f"matrix); some norming constant is not positive")
    pivots = np.diagonal(factor).copy()
    z = (1.0 - 1.0 / (pivots * pivots)) / h
    diagonal = np.concatenate([[0.0], -z / (1.0 - 0.5 * h * z)])
    np.fill_diagonal(factor, 0.0)
    y_k = (np.diagonal(F) - np.einsum("ij,ij->i", factor, factor) / h) / (pivots * pivots)
    np.fill_diagonal(factor, pivots)
    W, info = dtrtri(factor, lower=1, overwrite_c=1)
    _check_info("trtri", info, PI)
    inv, info = dlauum(W, lower=1)
    _check_info("lauum", info, PI)
    inv = np.abs(inv, out=work)  # |G|'s C-order buffer: the condition sums' bits need C order
    cond = g_norm * (inv.sum(axis=0) + inv.sum(axis=1) - np.diagonal(inv)).max()
    if not cond <= CONDITION_LIMIT:
        raise AdmissibilityError(
            f"ill-posed data: 1-norm condition estimate {cond:.3e} at x={PI:.4f} exceeds "
            f"{CONDITION_LIMIT:.0e} (the {M}-node trapezoid matrix of I + F_x)")
    rows = np.zeros((M + 1, M + 1))
    y = rows[1:, 1:]  # filled in place: -y/(1 - h y_k/2) is y/(h y_k/2 - 1)
    np.divide(W, -h * pivots[:, None], out=y)
    np.fill_diagonal(y, y_k)
    y /= (0.5 * h * y_k - 1.0)[:, None]
    return TrapezoidSystem(h, stride, F, W, rows, diagonal, float(cond))


def _check_info(routine: str, info: int, x: float) -> None:
    """Refuse a negative LAPACK info: an illegal argument to the routine."""
    if info < 0:
        raise NumericsError(f"{routine}: illegal value in argument {-info} at x={x:.4f}")


def _residuals(g: TrapezoidSystem) -> np.ndarray:
    """The residual of each row k = 1..M's own equation at t = t_k when
    P(t_k, t_k) is read from the pivots: roundoff for admissible data, so it
    checks the pivots against the rows.  It reads the rows and F in place."""
    fkk = np.diagonal(g.F)
    y = g.rows[1:, 1:]
    dots = np.einsum("ij,ij->i", y, g.F)
    return np.abs(g.diagonal[1:] + fkk + g.h * (dots - 0.5 * np.diagonal(y) * fkk))


def _slope_row(g: TrapezoidSystem, k: int, slopes: np.ndarray) -> np.ndarray:
    """P_x(t_k, t_j) for j = 0..k on one grid, from the H' table ``slopes``.

    It solves the x-derivative of the row equation,
    P_x + F_x(x, .) + P(x,x) F(x, .) + int P_x F = 0,
    whose matrix is the row's own: P_x = w - (h/2) w_k P with
    w = G_k^(-1) r = W_k^T (W_k r), r the right-hand side.
    F_x(x, t) = (H'(x-t) - H'(x+t))/2 takes H'(0) from the right, the limit
    t -> x-.
    """
    j = np.arange(1, k + 1) * g.stride
    kk = k * g.stride
    f = g.F[k - 1, :k]
    r = -(0.5 * (slopes[kk - j] - slopes[kk + j]) + g.diagonal[k] * f)
    W = g.inv_factor[:k, :k]
    w = W.T @ (W @ r)
    p_x = np.zeros(k + 1)
    p_x[1:] = w - 0.5 * g.h * w[-1] * g.rows[k, 1:k + 1]
    return p_x


def _richardson_weights(coarse: np.ndarray, fine: np.ndarray, h: float,
                        ends: int | np.ndarray) -> np.ndarray:
    """Weights c on the fine nodes tau_j = j h/2 such that
    c . s(tau) = (4 T_{h/2} - T_h)/3 for the integral of u s over [0, k h],
    T the trapezoid rule, for one row of u or a matrix of rows on the coarse
    and fine nodes, each zero past its end node ``ends`` = 2k (one per row).
    Column 0 is zero, as P(x, 0) = 0, so its half weight needs no code."""
    c = (2.0 * h / 3.0) * fine
    c[..., ::2] -= (h / 3.0) * coarse
    rows = np.atleast_2d(c)  # a view of c
    rows[np.arange(rows.shape[0]), ends] *= 0.5
    return c


@dataclass(frozen=True)
class KernelRow:
    """Row P(x, .) at a node x = t_k of the field's grid: ``values`` at
    ``nodes`` t_0..t_k, one Richardson step from the grids h and h/2."""

    x: float
    nodes: np.ndarray
    values: np.ndarray


def solve_gl(field: KernelField, x: float) -> KernelRow:
    """The full row P(x, .) at a node x > 0 of the field's grid: the rows of
    the grids h and h/2 at x, combined by one Richardson step.  The solutions
    phi are rebuilt from ``field.weights``, not from rows (see
    :meth:`KernelField.phi`)."""
    k = field.index(x)
    if k == 0:
        raise ConfigError(f"x={x} outside (0, pi]")
    coarse, fine = field.grids
    return KernelRow(x=float(field.x_nodes[k]), nodes=field.x_nodes[:k + 1].copy(),
                     values=(4.0 * fine.rows[2 * k, :2 * k + 1:2] - coarse.rows[k, :k + 1]) / 3.0)


class KernelField:
    """The transformation kernel P, from the H kernel ``H``, on the uniform
    x grid of ``x_nodes`` nodes on [0, pi].

    ``grid`` is that trapezoid grid, built once here, and ``x_nodes`` its
    nodes.  Construction factors the trapezoid systems of the grids
    h = pi/M and h/2, read from one H table on ``table_size`` + 1 = 4M + 1
    nodes, and inverts their factors; the diagonal is their pivots' P(x, x),
    combined by one Richardson step.  ``weights`` holds, in row k, the
    :func:`_richardson_weights` of the rows at t_k (zero past t_k), all rows
    in one call.  The field reads ``H`` through its tables only: one
    :meth:`HFunction.tables` call gives H and H' here, H' kept for :meth:`dphi`."""

    def __init__(self, H: HFunction, x_nodes: int = DEFAULT_X_NODES):
        _check_count("x_nodes", x_nodes, 5)  # a floor of the CLI contract: fewer exit 64
        self.H = H
        self.grid = trapezoid_grid(np.linspace(0.0, PI, x_nodes))
        self.x_nodes = self.grid.nodes
        M = x_nodes - 1
        self.table_size = 4 * M
        table, self._slopes = H.tables(self.table_size)
        self.grids = (_factor(table, M, 2), _factor(table, 2 * M, 1))
        coarse, fine = self.grids
        self.diagonal = (4.0 * fine.diagonal[::2] - coarse.diagonal) / 3.0
        self.condition_max = max(coarse.cond, fine.cond)
        self.weights = _richardson_weights(coarse.rows, fine.rows[::2], coarse.h, 2 * np.arange(M + 1))
        self._spline = None

    def F(self, x, t):
        """F(x, t) = (H(|x-t|) - H(x+t))/2 at any x, t in [0, pi], through the
        not-a-knot :class:`~invspec.core.Spline` of the H table of the
        default x grid (H_GRID_SIZE nodes), built on the first call; the
        main equation reads F on its grids only.  Arguments past [0, pi] by
        roundoff are taken at its ends, others (and NaN) are refused."""
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        lo = float(np.minimum(np.min(x, initial=np.inf), np.min(t, initial=np.inf)))
        hi = float(np.maximum(np.max(x, initial=-np.inf), np.max(t, initial=-np.inf)))
        if not (lo >= -1e-12 and hi <= PI + 1e-12):  # NaN fails too
            raise DomainError(f"F evaluated outside [0, pi] (x and t from {lo:.6g} to {hi:.6g})")
        if self._spline is None:
            L = H_GRID_SIZE - 1
            self._spline = Spline(_table_nodes(L), self.H.tables(L)[0])
        out = 0.5 * (self._spline(np.abs(x - t)) - self._spline(np.clip(x + t, 0.0, TWO_PI)))
        return out if out.ndim else float(out)

    def index(self, x: float) -> int:
        """k with x = t_k; an x off the grid is refused."""
        return int(self._indices(np.array([float(x)]))[0])

    def _indices(self, xs: np.ndarray) -> np.ndarray:
        """k with xs = t_k for each x, in one test; the first x off the grid
        is refused."""
        h = self.grids[0].h
        ks = np.rint(xs / h)
        on = (ks >= 0) & (ks < self.x_nodes.size) & (np.abs(xs - ks * h) <= 1e-9)
        if not on.all():
            x = float(xs[np.argmin(on)])
            raise ConfigError(f"x={x} is not a node of the {self.x_nodes.size}-node x grid")
        return ks.astype(np.intp)

    def row(self, x: float) -> KernelRow:
        return solve_gl(self, x)

    def phi(self, x, mus) -> np.ndarray:
        """phi(x, mu) = s(x) + integral of P(x,t) s(t) dt over [0, x] for each
        mu and grid node x, with s = sin(sqrt(mu) t)/sqrt(mu); phi(0, mu) = 0.

        The one rebuild of the solutions from the kernel, one matrix product
        with the rows of ``weights``: a scalar x gives a vector over mu, an
        array of x a (mu, x) matrix.
        """
        mus = np.atleast_1d(np.asarray(mus, dtype=float))
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        ks = self._indices(xs)
        n = 2 * int(ks.max(initial=0)) + 1
        S = musin(mus[:, None], np.arange(n) * self.grids[1].h)
        out = musin(mus[:, None], xs) + S @ self.weights[ks, :n].T
        return out if np.ndim(x) else out[:, 0]

    def dphi(self, x: float, mus) -> np.ndarray:
        """phi'(x, mu) = c(x) + P(x,x) s(x) + integral of P_x(x,t) s(t) dt for
        each mu at a grid node x, with c = cos(sqrt(mu) t); phi'(0, mu) = 1.

        P_x solves the x-derivative of the row equation on both grids (see
        :func:`_slope_row`), with the H' table stored by the constructor, and
        one Richardson step combines the two quadratures.
        """
        mus = np.atleast_1d(np.asarray(mus, dtype=float))
        k = self.index(x)
        if k == 0:
            return np.ones(mus.size)
        coarse, fine = self.grids
        weights = _richardson_weights(_slope_row(coarse, k, self._slopes),
                                      _slope_row(fine, 2 * k, self._slopes), coarse.h, 2 * k)
        xk = self.x_nodes[k]
        return (mucos(mus, xk) + self.diagonal[k] * musin(mus, xk)
                + musin(mus[:, None], np.arange(2 * k + 1) * fine.h) @ weights)


def solve_kernel_field(H: HFunction, x_nodes: int = DEFAULT_X_NODES) -> KernelField:
    """Factor the main equation of the H kernel ``H`` on the uniform grid of
    ``x_nodes`` nodes on [0, pi] (at least 5), which gives the whole kernel
    diagonal and every row."""
    return KernelField(H, x_nodes)


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


def recover_q(field: KernelField) -> Potential:
    """Potential from the kernel diagonal on the field's x grid:
    q = 2 d/dx P(x,x).

    The derivative at each node is the node slope of the not-a-knot
    :class:`~invspec.core.Spline` through the diagonal, one tridiagonal
    solve.  The result carries trapezoid weights on the field's uniform grid.
    """
    return Potential(field.grid, 2.0 * Spline(field.x_nodes, field.diagonal).slopes)


@dataclass(frozen=True)
class BetaRecovery:
    beta_tilde: float
    cot_beta_tilde: float
    spread: float
    ratios: np.ndarray
    prediction_gap: float   # |cot(beta~) - (cot(beta) - P(pi, pi))|, P(pi, pi) = (integral q)/2


def recover_beta(field: KernelField, data: SpectralData) -> BetaRecovery:
    """Boundary angle from the constancy of -phi'(pi, mu_n)/phi(pi, mu_n).

    The median ratio over the first K = min(8, max(5, count // 4))
    eigenvalues gives cot of the recovered angle; the spread doubles as a
    data-consistency diagnostic and raises when the ratios disagree beyond
    1e-2 relative.  Expects drift-free data, the eigenvalues of the field's
    own problem: the prediction carries no drift term.
    """
    mus = data.mu[:min(8, max(5, data.count // 4))]
    ratios = -field.dphi(PI, mus) / field.phi(PI, mus)
    med = float(np.median(ratios))
    dev = np.abs(ratios - med)
    spread = float(np.max(dev))
    if spread > 1e-2 * (1.0 + abs(med)):
        n = int(np.argmax(dev))
        raise DataConsistencyError(
            f"endpoint ratios disagree (spread {spread:.3e}, worst at index {n}, "
            f"mu={mus[n]:.6g}); data are not from a single problem")
    beta_tilde = float(np.pi / 2.0 - np.arctan(med))  # arccot into (0, pi)
    prediction = as_angle(data.beta).cot - field.diagonal[-1]  # P(pi, pi): half the integral of q
    return BetaRecovery(beta_tilde, med, spread, ratios, abs(med - prediction))


def consistency_suite(field: KernelField, data: SpectralData) -> dict:
    """Post-hoc identities over the first 20 pairs of drift-free data:
    completeness defect of the rebuilt solutions for f(x)=x and f(x)=sin(x),
    their Gram matrix against the norming constants, and the largest
    diagonal residual over every row of both grids (roundoff for admissible
    data: it checks the pivots against the rows).

    phi is rebuilt at every grid node.  Each integral splits as
    phi = s + (phi - s): the free solutions s carry the oscillation and
    integrate on a 64-node Gauss rule to roundoff; the kernel's share, about
    |P|/sqrt(mu) of them, integrates on the grid by Gregory's rule."""
    k_terms = min(20, data.count)
    mus, a = data.mu[:k_terms], data.norming[:k_terms]
    x = field.x_nodes
    w = field.grid.weights.copy()
    w[:_GREGORY_END.size] += (x[1] - x[0]) * _GREGORY_END
    w[-_GREGORY_END.size:] += (x[1] - x[0]) * _GREGORY_END[::-1]
    phi = field.phi(x, mus)
    s = musin(mus[:, None], x)
    xg, wg = gauss_rule(64, 0.0, PI)
    sg = musin(mus[:, None], xg)
    diag_res = max(float(_residuals(g).max()) for g in field.grids)

    parseval = {}
    for name, f in (("x", np.asarray), ("sin", np.sin)):
        fg = f(xg)
        f2 = float(np.dot(wg, fg * fg))
        coef = sg @ (wg * fg) + (phi - s) @ (w * f(x))
        parseval[name] = abs(f2 - float(np.sum(coef * coef / a))) / f2

    G = (sg * wg) @ sg.T + (phi * w) @ phi.T - (s * w) @ s.T
    off = np.abs(G - np.diag(np.diag(G))) / np.outer(np.sqrt(a), np.sqrt(a))
    gram_off = float(np.max(off)) if k_terms > 1 else 0.0
    gram_diag = float(np.max(np.abs(np.diag(G) - a) / a))

    return {
        "diagonal_residual_max": float(diag_res),
        "parseval_defect": parseval,
        "gram_offdiag_max": gram_off,
        "gram_diag_rel_max": gram_diag,
        "condition_max": field.condition_max,
        "branch": field.H.branch,
        "k_terms": k_terms,
    }
