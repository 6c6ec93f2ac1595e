"""Workload definitions: the fixed cases, the library call each case times,
and the checks that every output must pass.

A case is run by ``run()``; ``read(output)`` takes the numbers the checks
need out of the library's result; ``check(view)`` compares them with the
references in :mod:`references` or with properties the method must have.
The checks work on plain arrays so that they can be tested on perturbed
outputs without running the library.
"""
from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import references as ref

HERE = Path(__file__).resolve().parent
COS_DATA = HERE / "data" / "cos_beta60_n64.json"

PI = np.pi
N_FORWARD = 16
TRIM_LO = 0.05          # inverse errors are taken on [TRIM_LO, pi]
EX6_COUNT = 40
EX6_LONG_COUNT = 400


@dataclass
class Verdict:
    """Outcome of the checks on one output.

    ``error`` is the case's error against an exact reference (None when the
    case has none); ``layer`` holds per-layer values read from the output.
    """

    error: float | None = None
    failures: list[str] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Case:
    name: str
    error_name: str         # what Verdict.error measures for this case
    run: Callable[[], Any]
    read: Callable[[Any], dict]
    check: Callable[[dict], Verdict]
    warm_up: Callable[[], Any]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def spectrum_failures(mu: np.ndarray, a: np.ndarray, count: int) -> list[str]:
    """Properties every computed spectrum must have."""
    if mu.size != count or a.size != count:
        return [f"{mu.size} eigenvalues and {a.size} norming constants, wanted {count}"]
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(a))):
        return ["non-finite eigenvalue or norming constant"]
    failures = []
    if np.any(np.diff(mu) <= 0.0):
        failures.append("eigenvalues not strictly increasing")
    if np.any(a <= 0.0):
        failures.append("a norming constant is not positive")
    return failures


def mu_rel_error(mu: np.ndarray, mu_ref: np.ndarray) -> float:
    return float(np.max(np.abs(mu - mu_ref) / (1.0 + np.abs(mu_ref))))


def check_exact_spectrum(view: dict, mu_ref: np.ndarray, mu_tol: float,
                         a_ref: np.ndarray | None = None, a_tol: float = 0.0) -> Verdict:
    mu, a = view["mu"], view["a"]
    v = Verdict(layer={"forward.eigenpairs": float(mu.size)})
    v.failures = spectrum_failures(mu, a, mu_ref.size)
    if v.failures:
        return v
    v.error = mu_rel_error(mu, mu_ref)
    if not v.error <= mu_tol:
        v.failures.append(f"mu error {v.error:.3e} > {mu_tol:.0e}")
    if a_ref is not None:
        a_err = float(np.max(np.abs(a - a_ref) / a_ref))
        if not a_err <= a_tol:
            v.failures.append(f"a_n relative error {a_err:.3e} > {a_tol:.0e}")
    return v


def check_mean_zero_tail(view: dict, omega: np.ndarray, n_lo: int) -> Verdict:
    """For a smooth potential of zero mean, lambda_n - omega_n = O(1/n^2):
    n^2 |lambda_n - omega_n| over n >= n_lo stays within ten times its median
    (acceptance criterion 4 uses the same test on the residual)."""
    mu, a = view["mu"], view["a"]
    v = Verdict(layer={"forward.eigenpairs": float(mu.size)})
    v.failures = spectrum_failures(mu, a, omega.size)
    if v.failures:
        return v
    n = np.arange(n_lo, mu.size)
    res = n * n * np.abs(np.sqrt(mu[n_lo:]) - omega[n_lo:])
    if not res.max() <= 10.0 * np.median(res):
        v.failures.append(f"tail n^2|lambda-omega| max {res.max():.3e} > 10 x median {np.median(res):.3e}")
    return v


def q_sup_error(x: np.ndarray, q_hat: np.ndarray, q_exact: np.ndarray) -> float:
    keep = x >= TRIM_LO
    return float(np.max(np.abs(q_hat[keep] - q_exact[keep])))


def check_ex6(view: dict) -> Verdict:
    """All four closed forms of the half-integer example, at the tolerances
    of the program's own oracle."""
    v = _inverse_verdict(view)
    v.error = q_sup_error(view["x"], view["q_hat"], ref.ex6_q(view["x"]))
    X, T = np.meshgrid(view["F_x"], view["F_x"])
    f_err = float(np.max(np.abs(view["F"] - ref.ex6_F(X, T))))
    p_err = max(float(np.max(np.abs(values - ref.ex6_P(x, nodes))))
                for x, nodes, values in view["P_rows"])
    cot_err = abs(view["cot_beta_tilde"] - ref.EX6_COT_BETA_TILDE)
    for name, err, tol in (("F", f_err, 1e-10), ("P", p_err, 1e-8), ("q", v.error, 1e-4),
                           ("cot beta~", cot_err, 1e-6)):
        if not err <= tol:
            v.failures.append(f"{name} closed-form error {err:.3e} > {tol:.0e}")
    return v


def check_cos_inverse(view: dict, beta: float) -> Verdict:
    """q = cos x has zero mean and zero integral, so the recovered angle is
    the data's angle; q_hat must track cos x on the trimmed window.  The
    window ends at pi, where the endpoint stencils dominate the error."""
    v = _inverse_verdict(view)
    v.error = q_sup_error(view["x"], view["q_hat"], np.cos(view["x"]))
    if not v.error <= 1e-2:
        v.failures.append(f"sup |q_hat - cos| {v.error:.3e} > 1e-2")
    gap = abs(view["beta_tilde"] - beta)
    if not gap <= 5e-3:
        v.failures.append(f"|beta~ - beta| {gap:.3e} > 5e-3")
    return v


def _inverse_verdict(view: dict) -> Verdict:
    v = Verdict(layer={"inverse.condition_max": view["condition_max"],
                       "inverse.endpoint_spread": view["endpoint_spread"]})
    if not np.all(np.isfinite(view["q_hat"])):
        v.failures.append("non-finite q_hat")
    return v


# ---------------------------------------------------------------------------
# Reading library outputs
# ---------------------------------------------------------------------------


def read_forward(solution) -> dict:
    return {"mu": np.array([r.mu for r in solution.records]),
            "a": np.array([r.a for r in solution.records])}


def read_inverse(result, with_kernels: bool = False) -> dict:
    field = result.field
    view = {
        "x": np.asarray(result.q_hat.grid.nodes),
        "q_hat": np.asarray(result.q_hat.values),
        "beta_tilde": float(result.beta_rec.beta_tilde),
        "cot_beta_tilde": float(result.beta_rec.cot_beta_tilde),
        "condition_max": float(field.condition_max),
        "endpoint_spread": float(result.beta_rec.spread),
    }
    if with_kernels:
        xs = np.linspace(0.0, PI, 20)
        X, T = np.meshgrid(xs, xs)
        view["F_x"] = xs
        view["F"] = np.asarray(field.F(X, T))
        rows = [field.row(float(x)) for x in field.x_nodes[1::16]]
        view["P_rows"] = [(row.x, row.nodes, row.values) for row in rows]
    return view


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------


def _step(x):
    return np.where(x < PI / 2.0, 0.0, 2.0)


def forward_cases() -> list[Case]:
    """forward_solve at N = 16 on three potentials:

    - cos x, beta = pi/3: smooth, zero mean; checked by its O(1/n^2) tail;
    - the constant -2, beta = 2 pi/3: two negative eigenvalues, the lowest on
      the hyperbolic branch below q; eigenvalues and a_n have exact references;
    - the L1 step 0 | 2 at pi/2, beta = pi/3: exact eigenvalues from the
      two-piece transfer matrix; the cubic-spline potential rings at the jump.
    """
    import invspec
    forward = importlib.import_module("invspec.forward")

    omega = np.sqrt(ref.eigenvalues([(PI, 0.0)], PI / 3.0, N_FORWARD))
    const_mu = ref.eigenvalues([(PI, -2.0)], 2.0 * PI / 3.0, N_FORWARD)
    step_mu = ref.eigenvalues([(PI / 2.0, 0.0), (PI / 2.0, 2.0)], PI / 3.0, N_FORWARD)
    specs = [
        ("cos", np.cos, PI / 3.0, lambda view: check_mean_zero_tail(view, omega, N_FORWARD // 4)),
        ("const", lambda x: np.full_like(x, -2.0), 2.0 * PI / 3.0,
         lambda view: check_exact_spectrum(view, const_mu, 1e-9,
                                           ref.constant_norming(const_mu, -2.0), 1e-8)),
        ("step", _step, PI / 3.0, lambda view: check_exact_spectrum(view, step_mu, 1e-2)),
    ]
    cases = []
    for name, func, beta, check in specs:
        q = invspec.sample_potential(func)
        cases.append(Case(
            name=name,
            error_name="mu_rel_error",
            run=lambda q=q, beta=beta: forward.forward_solve(q, beta, N_FORWARD),
            read=read_forward,
            check=check,
            warm_up=lambda q=q, beta=beta: forward.characteristic(q, beta, 1.0),
        ))
    return cases


def load_cos_data():
    from invspec import SpectralData

    record = json.loads(COS_DATA.read_text())
    return SpectralData(record["beta"], np.array(record["mu"]), np.array(record["a"]),
                        c_fit=record["c_fit"])


def ex6_data(count: int):
    from invspec import SpectralData

    mu, a = ref.ex6_spectrum(count)
    return SpectralData(ref.EX6_BETA, mu, a, c_fit=0.0)


def _inverse_case(name: str, data, read, check) -> Case:
    # invspec.roundtrip names the function; the submodule is in sys.modules
    inverse = importlib.import_module("invspec.inverse")
    roundtrip = importlib.import_module("invspec.roundtrip")
    return Case(name=name,
                error_name="q_sup_error",
                run=lambda: roundtrip.inverse_pipeline(data),
                read=read,
                check=check,
                warm_up=lambda: inverse.validate(data, data.beta))


def inverse_cases() -> list[Case]:
    """inverse_pipeline with default parameters on the half-integer example
    (40 pairs, closed forms for F, P, q and the angle) and on the stored
    forward data of cos x at beta = pi/3, N = 64."""
    cos = load_cos_data()
    return [
        _inverse_case("example6", ex6_data(EX6_COUNT),
                      lambda r: read_inverse(r, with_kernels=True), check_ex6),
        _inverse_case("cos", cos, read_inverse, lambda view: check_cos_inverse(view, cos.beta)),
    ]


def inverse_long_cases() -> list[Case]:
    """The half-integer example with a 400-pair prefix: the same inverse
    layer, ten times the data."""
    return [_inverse_case("example6-400", ex6_data(EX6_LONG_COUNT),
                          lambda r: read_inverse(r, with_kernels=True), check_ex6)]


WORKLOADS: dict[str, Callable[[], list[Case]]] = {
    "forward": forward_cases,
    "inverse": inverse_cases,
    "inverse-long": inverse_long_cases,
}
