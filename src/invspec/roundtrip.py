"""End-to-end pipelines: forward -> validate -> inverse round trips with
error metrics, and the bundled half-integer reference example with its
closed-form answers (exposed on the CLI as ``example6``)."""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .asymptotics import delta_sequence, shift_spectrum
from .core import (
    PI,
    BoundaryAngle,
    Potential,
    SpectralData,
    _check_count,
    as_angle,
    interpolant,
)
from .errors import AdmissibilityError, ConfigError
from .forward import forward_solve
from .inverse import (
    DEFAULT_N_TERMS,
    DEFAULT_X_NODES,
    BetaRecovery,
    KernelField,
    build_H,
    consistency_suite,
    recover_beta,
    recover_q,
    solve_kernel_field,
    validate,
)

DEFAULT_TRIM = (0.05, PI)


@dataclass
class InverseResult:
    data: SpectralData
    q_hat: Potential
    beta_rec: BetaRecovery
    field: KernelField
    validation: dict
    consistency: dict


def inverse_pipeline(data: SpectralData, *, x_nodes: int = DEFAULT_X_NODES,
                     force: bool = False) -> InverseResult:
    """validate -> H -> kernel field -> q, recovered angle, diagnostics, on the
    uniform grid of ``x_nodes`` nodes (at least 5); ``force`` proceeds past
    validate's hard failures, though data that are not positive are still refused.

    The one place that knows the drift constant c: validate fits it, the
    kernel layer inverts the drift-free data (mu_n - c, a_n) of q - c, and c
    is added back to the recovered q.  A constant shift of q leaves phi, the
    norming constants and the recovered angle unchanged.  The result's
    ``data`` are the caller's pairs, with c as their ``c_fit``.

    The H series carries DEFAULT_N_TERMS explicit terms, or the data count
    when that is larger, so every pair is used: from 500 terms on, the
    recovered q agrees to four digits whatever the count.  One delta
    sequence serves validate and the H build."""
    n_terms = max(DEFAULT_N_TERMS, data.count)
    delta = delta_sequence(data.beta, max(n_terms, data.count + 2))
    report = validate(data, data.beta, delta=delta)
    if report["hard_fail"] and not force:
        failed = [c["name"] for c in report["checks"] if c["status"] == "fail"]
        raise AdmissibilityError("inadmissible spectral data: " + ", ".join(failed))
    c = 0.0 if report["c_fit"] is None else report["c_fit"]
    kappa = 0.0 if report["kappa"] is None else report["kappa"]
    shifted = shift_spectrum(data, c)
    H = build_H(shifted, data.beta, n_terms, delta=delta, kappa=kappa)
    field = solve_kernel_field(H, x_nodes)
    q_shifted = recover_q(field)
    q_hat = Potential(q_shifted.grid, q_shifted.values + c)
    beta_rec = recover_beta(field, shifted)
    cons = consistency_suite(field, shifted)
    data = SpectralData(data.beta, data.mu, data.norming, c_fit=c)
    return InverseResult(data, q_hat, beta_rec, field, report, cons)


@dataclass(frozen=True)
class RoundTripReport:
    """Error metrics of a forward -> inverse round trip."""

    q_sup_error: float
    q_l1_error: float
    beta_gap: float
    angle_identity_gap: float
    n_eigen: int
    x_nodes: int
    trim: tuple[float, float]
    consistency: dict

    def to_dict(self) -> dict:
        d = asdict(self)
        d["trim"] = list(self.trim)
        return d


def roundtrip(q: Potential, beta: BoundaryAngle | float, n_eigen: int,
              trim: tuple[float, float] = DEFAULT_TRIM, *, x_nodes: int = DEFAULT_X_NODES,
              force: bool = False) -> tuple[RoundTripReport, InverseResult]:
    """Forward solve, then reconstruct by :func:`inverse_pipeline` (with
    ``x_nodes`` and ``force``) and compare on the trimmed interval.

    The recovered angle legitimately differs from the input one; the reported
    gap therefore comes with the identity-corrected gap, which must be small
    for data from a genuine problem.
    """
    beta = as_angle(beta)
    _check_count("n_eigen", n_eigen, 16)
    _check_count("x_nodes", x_nodes, 5)
    xs = np.linspace(0.0, PI, x_nodes)
    mask = (xs >= trim[0]) & (xs <= trim[1])
    if not mask.any():
        raise ConfigError(f"trim window [{trim[0]:g}, {trim[1]:g}] holds none of the "
                          f"{x_nodes} x nodes")
    solution = forward_solve(q, beta, n_eigen)
    data = solution.spectral_data()
    inv = inverse_pipeline(data, x_nodes=x_nodes, force=force)

    q_true = interpolant(q)(xs)
    diff = np.abs(inv.q_hat.values - q_true)
    sup = float(np.max(diff[mask]))
    l1 = float(np.trapezoid(diff[mask], xs[mask]))
    beta_gap = abs(inv.beta_rec.beta_tilde - beta.beta)
    report = RoundTripReport(
        q_sup_error=sup,
        q_l1_error=l1,
        beta_gap=beta_gap,
        angle_identity_gap=inv.beta_rec.prediction_gap,
        n_eigen=n_eigen,
        x_nodes=x_nodes,
        trim=(float(trim[0]), float(trim[1])),
        consistency=inv.consistency,
    )
    return report, inv


# ---------------------------------------------------------------------------
# Bundled reference example: half-integer spectrum with a modified ground
# weight.  Everything downstream has a closed form, which makes it the
# standard oracle for the whole inverse chain.
# ---------------------------------------------------------------------------


def example6_data(count: int = 40) -> SpectralData:
    """lambda_n = n + 1/2 with the ground norming constant pi (its
    unperturbed value would be 2*pi); all other pairs match the base problem
    at beta = pi/2."""
    _check_count("count", count, 1)
    n = np.arange(count)
    lam = n + 0.5
    a = PI / (2.0 * lam * lam)
    a[0] = PI
    return SpectralData(beta=PI / 2.0, mu=lam * lam, norming=a, c_fit=0.0)


def example6_F(x, t):
    return (2.0 / PI) * np.sin(np.asarray(x) / 2.0) * np.sin(np.asarray(t) / 2.0)


def example6_P(x, t):
    x = np.asarray(x, dtype=float)
    return 4.0 * np.sin(x / 2.0) * np.sin(np.asarray(t) / 2.0) / (2.0 * np.sin(x) - 2.0 * x - 2.0 * PI)


def example6_q(x):
    x = np.asarray(x, dtype=float)
    den = np.sin(x) - x - PI
    return 2.0 * np.sin(x) / den - 4.0 * (np.cos(x) - 1.0) * np.sin(x / 2.0) ** 2 / (den * den)


EXAMPLE6_COT_BETA = 1.0 / PI  # recovered-angle cotangent


def example6_oracle(count: int = 40, *, x_nodes: int = DEFAULT_X_NODES, force: bool = False) -> dict:
    """Run the inverse pipeline (with its options ``x_nodes`` and ``force``) on
    the reference data of ``count`` pairs and check all four closed forms
    plus the recovered angle at their stated tolerances."""
    t_start = time.time()
    data = example6_data(count)
    inv = inverse_pipeline(data, x_nodes=x_nodes, force=force)
    field = inv.field

    checks = []

    xs = np.linspace(0.0, PI, 20)
    X, T = np.meshgrid(xs, xs)
    f_err = float(np.max(np.abs(field.F(X, T) - example6_F(X, T))))
    checks.append({"name": "kernel-F-closed-form", "error": f_err, "tol": 1e-10})

    p_err = 0.0
    for x in field.x_nodes[1::16]:
        row = field.row(float(x))
        p_err = max(p_err, float(np.max(np.abs(row.values - example6_P(x, row.nodes)))))
    checks.append({"name": "kernel-P-closed-form", "error": p_err, "tol": 1e-8})

    mask = field.x_nodes >= 0.05
    q_err = float(np.max(np.abs(inv.q_hat.values[mask] - example6_q(field.x_nodes[mask]))))
    checks.append({"name": "potential-closed-form", "error": q_err, "tol": 1e-4})

    cot_err = abs(inv.beta_rec.cot_beta_tilde - EXAMPLE6_COT_BETA)
    checks.append({"name": "recovered-angle", "error": float(cot_err), "tol": 1e-6})

    for ch in checks:
        ch["pass"] = bool(ch["error"] <= ch["tol"])
    return {
        "checks": checks,
        "all_pass": all(ch["pass"] for ch in checks),
        "elapsed_s": time.time() - t_start,
        "consistency": inv.consistency,
        "beta_tilde": inv.beta_rec.beta_tilde,
        "cot_beta_tilde": inv.beta_rec.cot_beta_tilde,
    }
