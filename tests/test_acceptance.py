"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured numbers so the whole gate can be read off a verbose run."""
import time

import numpy as np

from invspec.asymptotics import (
    _solve_delta_array,
    refined_asymptotics_check,
    solve_delta,
    t_beta_closed_form,
)
from invspec.core import (
    PI,
    GridFunction,
    as_angle,
    gauss_rule,
    interpolant,
    sample_potential,
    trapezoid_grid,
)
from invspec.forward import eigenvalues, expand
from invspec.roundtrip import (
    example6_F,
    example6_P,
    example6_data,
    example6_q,
    inverse_pipeline,
)


def _report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_reference_example_closed_forms():
    t0 = time.time()
    inv = inverse_pipeline(example6_data(40))
    field = inv.field

    xs = np.linspace(0.0, PI, 20)
    X, T = np.meshgrid(xs, xs)
    f_err = float(np.max(np.abs(field.F(X, T) - example6_F(X, T))))

    p_err = 0.0
    for x in field.x_nodes[1:]:
        row = field.row(float(x))
        p_err = max(p_err, float(np.max(np.abs(row.values - example6_P(x, row.nodes)))))

    mask = field.x_nodes >= 0.05
    q_err = float(np.max(np.abs(inv.q_hat.values[mask] - example6_q(field.x_nodes[mask]))))

    cot_err = abs(inv.beta_rec.cot_beta_tilde - 1.0 / PI)
    elapsed = time.time() - t0

    ok = f_err <= 1e-10 and p_err <= 1e-8 and q_err <= 1e-4 and cot_err <= 1e-6 \
        and elapsed <= 60.0
    _report("criterion 1 (reference closed forms)", ok,
            f"F {f_err:.2e}<=1e-10, P {p_err:.2e}<=1e-8, q {q_err:.2e}<=1e-4, "
            f"cot {cot_err:.2e}<=1e-6, {elapsed:.1f}s<=60s")


def test_criterion_2_delta_exactness():
    worst_half = max(abs(solve_delta(PI / 2, n) - 0.5) for n in range(2, 101))

    def oracle(n):
        cb, sb = np.cos(PI / 4), np.sin(PI / 4)
        lo, hi = -1.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            om = n + mid
            phi = 1.0 - np.arccos(cb / np.sqrt(om * om * sb * sb + cb * cb)) / np.pi
            if mid - phi > 0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    worst_quarter = max(abs(solve_delta(PI / 4, n) - oracle(n)) for n in (2, 3, 7, 20, 60, 150))

    beta = as_angle(PI / 4)
    ns = np.arange(10, 201)
    d = _solve_delta_array(beta, ns.astype(float))
    scaled = np.abs(d - 0.5 - beta.cot / (np.pi * (ns + 0.5))) * ns**2
    bounded = scaled.max() <= 10.0 * np.median(scaled) + 1e-9

    ok = worst_half <= 1e-14 and worst_quarter <= 1e-10 and bounded
    _report("criterion 2 (index correction exactness)", ok,
            f"right-angle dev {worst_half:.2e}<=1e-14, bisection gap {worst_quarter:.2e}<=1e-10, "
            f"scaled tail max {scaled.max():.3f} <= 10*median {10 * np.median(scaled):.3f}")


def test_criterion_3_forward_closed_forms(fwd_zero_64, q_zero):
    mus = fwd_zero_64.records.mu[:20]
    a = fwd_zero_64.records.a[:20]
    ns = np.arange(20)
    mu_err = float(np.max(np.abs(mus - (ns + 0.5) ** 2)))
    a_err = float(np.max(np.abs(a - np.pi / (2 * (ns + 0.5) ** 2))))

    base = fwd_zero_64.records.mu[:6]
    q_shift = sample_potential(lambda x: np.full_like(x, 0.7))
    shifted = eigenvalues(q_shift, PI / 2, 6)
    shift_err = float(np.max(np.abs(shifted - base - 0.7)))

    ok = mu_err <= 1e-9 and a_err <= 1e-10 and shift_err <= 1e-8
    _report("criterion 3 (forward closed forms)", ok,
            f"mu {mu_err:.2e}<=1e-9, a {a_err:.2e}<=1e-10, shift {shift_err:.2e}<=1e-8")


def test_criterion_4_asymptotic_consistency(fwd_cos_64, q_cos, fwd_parabola_41, q_parabola):
    # eigenvalue tail of the cosine potential: residual * n^2 stays bounded
    beta = as_angle(PI / 3)
    data = fwd_cos_64.spectral_data()
    delta = fwd_cos_64.delta
    ns = np.arange(10, 61)
    om = delta.omega(ns)
    xq, wq = gauss_rule(256, 0.0, PI)
    qv = interpolant(q_cos)(xq)
    q_mean = float(np.dot(wq, qv)) / PI
    l_n = np.array([
        -float(np.dot(wq, qv * np.cos(2.0 * w * xq))) / (2.0 * PI * w)
        for w in om])
    res = np.abs(np.sqrt(data.mu[ns]) - (om + q_mean / (2.0 * om) + l_n)) * ns**2
    lam_bounded = res.max() <= 10.0 * np.median(res) + 1e-9

    # sharpened tails for the smooth potential x(pi - x): residual * n^3 bounded
    qp = GridFunction(q_parabola.grid, PI - 2.0 * q_parabola.grid.nodes)
    rep = refined_asymptotics_check(q_parabola, qp, PI / 3,
                                    fwd_parabola_41.spectral_data(), n_lo=10, n_hi=40)

    ok = lam_bounded and rep["lambda_bounded"] and rep["norming_bounded"]
    _report("criterion 4 (asymptotic consistency)", ok,
            f"cos tail max*n^2 {res.max():.3f} vs 10*med {10 * np.median(res):.3f}; "
            f"smooth n^3 bounds: lambda {rep['lambda_scaled'].max():.3f}, "
            f"norming {rep['norming_scaled'].max():.3f}")


def test_criterion_5_roundtrip(roundtrip_cos):
    errs = {n: roundtrip_cos[n][0].q_sup_error for n in (16, 32, 64)}
    gap = roundtrip_cos[64][0].angle_identity_gap
    elapsed = roundtrip_cos["elapsed_s"]
    monotone = errs[32] <= 1.1 * errs[16] and errs[64] <= 1.1 * errs[32]
    ok = errs[64] <= 5e-2 and monotone and gap <= 5e-3 and elapsed <= 300.0
    _report("criterion 5 (round trip)", ok,
            f"sup {errs[16]:.2e} -> {errs[32]:.2e} -> {errs[64]:.2e} (<=5e-2, monotone), "
            f"identity gap {gap:.2e}<=5e-3, {elapsed:.0f}s<=300s")


def test_criterion_6_structural_identities(ex6_inverse, roundtrip_cos):
    diag_cases = {
        "reference": ex6_inverse.consistency["diagonal_residual_max"],
        "roundtrip-16": roundtrip_cos[16][1].consistency["diagonal_residual_max"],
        "roundtrip-64": roundtrip_cos[64][1].consistency["diagonal_residual_max"],
    }
    gram = ex6_inverse.consistency["gram_offdiag_max"]
    gram_rt = roundtrip_cos[64][1].consistency["gram_offdiag_max"]
    parseval = ex6_inverse.consistency["parseval_defect"]["sin"]
    spread = ex6_inverse.beta_rec.spread

    ok = max(diag_cases.values()) <= 1e-6 and gram <= 1e-5 and gram_rt <= 1e-5 \
        and parseval <= 2e-3 and spread <= 1e-4
    _report("criterion 6 (structural identities)", ok,
            f"diag residual {max(diag_cases.values()):.2e}<=1e-6, gram {max(gram, gram_rt):.2e}<=1e-5, "
            f"parseval(sin,20) {parseval:.2e}<=2e-3, clean-data spread {spread:.2e}<=1e-4")


def test_criterion_7_expansion_convergence(fwd_zero_64):
    grid = trapezoid_grid(np.linspace(0.0, PI, 257))
    f_lin = GridFunction(grid, grid.nodes.copy())
    f_sin = GridFunction(grid, np.sin(grid.nodes))
    mask = grid.nodes >= 0.3
    errs_lin, errs_sin = [], []
    for N in (8, 16, 32, 64):
        out = expand(f_lin, fwd_zero_64, N)
        errs_lin.append(float(np.max(np.abs(out.values - f_lin.values)[mask])))
        out = expand(f_sin, fwd_zero_64, N)
        errs_sin.append(float(np.max(np.abs(out.values - f_sin.values))))
    mono_lin = all(b <= 1.05 * a for a, b in zip(errs_lin, errs_lin[1:]))
    mono_sin = all(b <= 1.05 * a for a, b in zip(errs_sin, errs_sin[1:]))
    ok = mono_lin and mono_sin
    _report("criterion 7 (expansion convergence)", ok,
            f"f=x on [0.3,pi]: {', '.join(f'{e:.1e}' for e in errs_lin)}; "
            f"f=sin on [0,pi]: {', '.join(f'{e:.1e}' for e in errs_sin)}")


def test_criterion_8_series_acceleration():
    worst = 0.0
    for beta in (PI / 2, PI / 3):
        angle = as_angle(beta)
        for x in (0.5, 1.0, PI, 5.0):
            closed = t_beta_closed_form(angle, x)
            brute = 0.0
            n0 = 2
            while n0 < 10**6 + 2:
                ns = np.arange(n0, min(n0 + 200000, 10**6 + 2), dtype=float)
                omn = ns + _solve_delta_array(angle, ns)
                brute += float(np.sum(np.sin(omn * x) / omn))
                n0 += 200000
            worst = max(worst, abs(closed - brute))
    ok = worst <= 2e-6
    _report("criterion 8 (series acceleration)", ok,
            f"max |closed - 1e6-term partial sum| = {worst:.2e} <= 2e-6")
