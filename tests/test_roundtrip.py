import numpy as np
import pytest

from invspec.core import PI, SpectralData, sample_potential
from invspec.errors import ConfigError
from invspec.forward import forward_solve
from invspec.inverse import build_H, recover_q, solve_kernel_field, validate
from invspec.roundtrip import (
    example6_F,
    example6_P,
    example6_data,
    example6_oracle,
    example6_q,
    EXAMPLE6_COT_BETA,
    inverse_pipeline,
    roundtrip,
)


def test_roundtrip_zero_potential(q_zero):
    report, inv = roundtrip(q_zero, PI / 2, 32)
    assert report.q_sup_error < 1e-6
    assert abs(inv.beta_rec.beta_tilde - PI / 2) < 1e-8
    assert report.angle_identity_gap < 1e-6


def test_roundtrip_requires_enough_modes(q_zero):
    with pytest.raises(ConfigError, match="n_eigen=8 is not an integer of at least 16"):
        roundtrip(q_zero, PI / 2, 8)


def test_roundtrip_rejects_empty_trim_window(q_zero):
    # refused up front, before the forward and inverse solves
    with pytest.raises(ConfigError, match="trim"):
        roundtrip(q_zero, PI / 2, 16, trim=(2.0, 1.0))


@pytest.mark.parametrize("x_nodes", [65.5, 3])
def test_roundtrip_refuses_x_nodes_before_solving(q_zero, monkeypatch, x_nodes):
    # a float and a count below the inverse's floor of 5 are refused up front
    import invspec.roundtrip as module

    def refuse(*args):
        raise AssertionError("roundtrip solved before checking x_nodes")

    monkeypatch.setattr(module, "forward_solve", refuse)
    with pytest.raises(ConfigError, match=rf"x_nodes={x_nodes!r} is not an integer of at least 5"):
        roundtrip(q_zero, PI / 2, 16, x_nodes=x_nodes)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_roundtrip_completes_near_pi(q_cos):
    # at pi - 0.01 a_0 is about 1e266: the consistency suite's Gram matrix is
    # scaled by sqrt(a_m) sqrt(a_n), whose product a_m a_n would overflow
    report, inv = roundtrip(q_cos, PI - 0.01, 64)
    assert inv.data.norming[0] > 1e250
    assert np.isfinite(inv.consistency["gram_offdiag_max"])


def test_package_attribute_is_the_roundtrip_module():
    # the package exports no name that shadows its roundtrip submodule
    import invspec.roundtrip as module
    assert module.inverse_pipeline is inverse_pipeline and module.roundtrip is roundtrip


def test_roundtrip_cos_accuracy(roundtrip_cos):
    report, _ = roundtrip_cos[64]
    assert report.q_sup_error <= 5e-2
    assert report.angle_identity_gap <= 5e-3


def test_roundtrip_cos_monotone_in_data_length(roundtrip_cos):
    errs = [roundtrip_cos[n][0].q_sup_error for n in (16, 32, 64)]
    for a, b in zip(errs, errs[1:]):
        assert b <= 1.1 * a


def test_roundtrip_report_fields(roundtrip_cos):
    report, _ = roundtrip_cos[32]
    d = report.to_dict()
    for key in ("q_sup_error", "q_l1_error", "beta_gap", "angle_identity_gap",
                "n_eigen", "x_nodes", "trim", "consistency"):
        assert key in d
    assert "n_terms" not in d  # derived from the data, not a parameter
    assert "n_quad" not in d  # the x grid is the one discretization knob
    assert d["q_sup_error"] >= 0 and np.isfinite(d["q_sup_error"])
    assert d["q_l1_error"] >= 0 and np.isfinite(d["q_l1_error"])
    assert d["beta_gap"] >= 0


def _q_hat(data, n_terms):
    field = solve_kernel_field(build_H(data, data.beta, n_terms), 129)
    return recover_q(field).values


@pytest.mark.parametrize("case, tol", [("cos", 1e-6), ("example6", 1e-9)],
                         ids=["cos", "example6"])
def test_recovered_q_flat_in_series_length(case, tol, fwd_cos_64):
    # the derived default of 2000 terms sits on the flat part of the curve:
    # four times the terms moves q_hat four orders below its error (measured
    # 8.4e-8 on cos, error 3.4e-3; 1.9e-10 on example6, error 4.4e-7)
    data = fwd_cos_64.spectral_data() if case == "cos" else example6_data(40)
    assert np.max(np.abs(_q_hat(data, 8000) - _q_hat(data, 2000))) <= tol


def test_series_length_follows_data_count(ex6_inverse):
    # more pairs than the default series length: every pair is used
    assert ex6_inverse.field.H.n_terms == 2000
    inv = inverse_pipeline(example6_data(2100))
    assert inv.field.H.n_terms == 2100
    x = inv.field.x_nodes
    keep = x >= 0.05
    assert np.max(np.abs(inv.q_hat.values[keep] - example6_q(x[keep]))) < 1e-6


# --- reference-example oracle -----------------------------------------------------


def test_example6_spot_values():
    # F(pi/2, pi/2) = (2/pi) sin^2(pi/4) = 1/pi; P(pi,pi) = -1/pi
    assert example6_F(PI / 2, PI / 2) == pytest.approx(1.0 / PI, rel=1e-15)
    assert example6_P(PI, PI) == pytest.approx(-1.0 / PI, rel=1e-15)
    x = PI / 2
    expect = 2 * np.sin(x) / (np.sin(x) - x - PI) \
        - 4 * (np.cos(x) - 1) * np.sin(x / 2) ** 2 / (np.sin(x) - x - PI) ** 2
    assert example6_q(x) == pytest.approx(expect, rel=1e-15)
    assert EXAMPLE6_COT_BETA == pytest.approx(1.0 / PI, rel=1e-15)


def test_example6_oracle_passes():
    # the default grid, and 100 nodes, where M = 99 and 198 are not powers of
    # two, so the factor's inverse splits its blocks unevenly (measured there:
    # F 2.3e-12, P 8.9e-12, q 9.5e-7, cot beta~ 1.6e-14)
    for report in (example6_oracle(), example6_oracle(40, x_nodes=100)):
        assert report["all_pass"], report["checks"]
        names = [c["name"] for c in report["checks"]]
        assert names == ["kernel-F-closed-form", "kernel-P-closed-form",
                         "potential-closed-form", "recovered-angle"]


def test_example6_reconstruction_feeds_forward():
    # the recovered (q, angle) must reproduce the half-integer spectrum
    from invspec.forward import eigenvalues
    inv = inverse_pipeline(example6_data(40))
    beta_tilde = inv.beta_rec.beta_tilde
    mus = eigenvalues(inv.q_hat, beta_tilde, 8)
    expect = (np.arange(8) + 0.5) ** 2
    assert np.max(np.abs(mus - expect)) < 1e-4


def test_roundtrip_angle_differs_from_input_legitimately(roundtrip_cos):
    # the recovered angle need not equal the input one; what must hold is the
    # cot identity against the fitted drift and the recovered integral
    report, inv = roundtrip_cos[64]
    assert report.beta_gap < 5e-3  # integral of cos vanishes, so they are close here
    assert inv.beta_rec.prediction_gap <= 1e-3


_MEAN_SET = {
    "cos+0.3": lambda x: np.cos(x) + 0.3,
    "parabola": lambda x: (x - PI / 2) ** 2,
    "1+sin2x": lambda x: 1.0 + np.sin(2.0 * x),
    "-2+x": lambda x: -2.0 + x,
    "5+cos": lambda x: 5.0 + np.cos(x),
    "-6+x": lambda x: -6.0 + x,
}


@pytest.mark.parametrize("beta", [PI / 3, 2 * PI / 3], ids=["pi/3", "2pi/3"])
@pytest.mark.parametrize("name", list(_MEAN_SET))
def test_roundtrip_nonzero_mean(name, beta):
    # potentials whose mean is not zero: the drift shift makes them as easy
    # as mean-zero ones (worst measured: interior 3.1e-4, sup 1.3e-2 at x = pi)
    f = _MEAN_SET[name]
    report, inv = roundtrip(sample_potential(f), beta, 64, trim=(0.05, PI))
    x = inv.q_hat.grid.nodes
    interior = (x >= 0.05) & (x <= 3.0)
    assert np.max(np.abs(inv.q_hat.values - f(x))[interior]) <= 1e-3
    assert report.q_sup_error <= 2e-2


@pytest.mark.parametrize("which, i, scale, shift",
                         [("a", 3, 1.2, 0.0), ("a", 0, 0.5, 0.0), ("mu", 5, 1.0, 0.5),
                          ("mu", 0, 1.0, -1.0)],
                         ids=["a3*1.2", "a0*0.5", "mu5+0.5", "mu0-1"])
def test_perturbed_data_close_under_the_forward_map(which, i, scale, shift, fwd_cos_64):
    # the paper's sufficiency statement: admissible data that come from no
    # forward solve are the spectral data of the recovered (q, angle); mu_0 - 1
    # makes a negative eigenvalue (measured at most 3.6e-5)
    data = fwd_cos_64.spectral_data()
    pairs = {"mu": data.mu.copy(), "a": data.norming.copy()}
    pairs[which][i] = pairs[which][i] * scale + shift
    inv = inverse_pipeline(SpectralData(data.beta, pairs["mu"], pairs["a"]))
    again = forward_solve(inv.q_hat, inv.beta_rec.beta_tilde, 64)
    mu_again = again.records.mu[:20]
    mu = pairs["mu"][:20]
    assert np.max(np.abs(mu_again - mu) / (1.0 + np.abs(mu))) <= 2e-4


def test_drift_fit_sharpens_with_data_length(roundtrip_cos):
    # fitted drift constant approaches the true mean (zero) as N grows
    cs = [abs(roundtrip_cos[n][1].data.c_fit) for n in (16, 32, 64)]
    assert cs[1] < cs[0] and cs[2] < cs[1]
    assert cs[2] < 1e-3


def test_forced_inversion_is_shift_invariant():
    # a swap of two eigenvalues makes validate skip its tail checks and, on
    # its own, its tail fit; the forced pipeline still shifts by its own fit,
    # the one the H kernel reads and the report shows, so the data of cos x + 5
    # invert to those of cos x plus 5 (measured 2.3e-10 in q and 1.7e-12 in
    # the angle; shifting by 0 instead put q off by 2e3)
    inv = {}
    for c in (0.0, 5.0):
        data = forward_solve(sample_potential(lambda x: np.cos(x) + c, 1025), PI / 3, 64).spectral_data()
        mu = data.mu.copy()
        mu[[40, 41]] = mu[[41, 40]]
        swapped = SpectralData(data.beta, mu, data.norming)
        inv[c] = inverse_pipeline(swapped, force=True)
        rep = inv[c].validation
        assert rep["hard_fail"] and len(rep["checks"]) == 2
        assert rep["c_fit"] == inv[c].data.c_fit
        assert all(isinstance(rep[k], float) for k in ("kappa", "gamma", "spread"))
        assert validate(swapped, data.beta)["c_fit"] is None
    assert np.max(np.abs(inv[5.0].q_hat.values - 5.0 - inv[0.0].q_hat.values)) <= 1e-8
    assert inv[5.0].beta_rec.beta_tilde == pytest.approx(inv[0.0].beta_rec.beta_tilde, abs=1e-10)
