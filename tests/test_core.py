import json
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from invspec.asymptotics import delta_sequence, solve_delta, unperturbed_norming, unperturbed_spectrum
from invspec.core import (
    PI,
    BoundaryAngle,
    Grid,
    GridFunction,
    SpectralData,
    Spline,
    gauss_rule,
    integrate,
    mucos,
    mucosm1,
    musin,
    read_potential_csv,
    sample_potential,
    trapezoid_grid,
    write_csv,
    write_grid_function_csv,
)
from invspec.errors import ConfigError
from invspec.inverse import build_H, solve_kernel_field
from invspec.roundtrip import example6_data


def _trapezoid(n):
    return trapezoid_grid(np.linspace(0.0, PI, n))


def _gauss(n):
    return Grid(*gauss_rule(n, 0.0, PI))


# the two quadrature rules on [0, pi] by the n-node grid builder
RULES = {"uniform-trapezoid": _trapezoid, "gauss-legendre": _gauss}


def test_sample_potential_rejects_small():
    with pytest.raises(ConfigError, match="n_nodes=7 is not an integer of at least 8"):
        sample_potential(np.cos, 7)
    assert sample_potential(np.cos, 8).grid.n == 8


# count arguments that were taken silently (10.5 as n_max 11, index 2.5, 40.5
# or True as a pair count) or escaped as a TypeError from numpy
COUNT_CASES = {
    "delta_sequence-10.5": (lambda: delta_sequence(1.0, 10.5), "n_max=10.5", 2),
    "solve_delta-2.5": (lambda: solve_delta(1.0, 2.5), "n=2.5", 2),
    "example6_data-40.5": (lambda: example6_data(40.5), "count=40.5", 1),
    "example6_data-True": (lambda: example6_data(True), "count=True", 1),
    "unperturbed_spectrum-4.5": (lambda: unperturbed_spectrum(1.0, 4.5), "N=4.5", 3),
    "build_H-100.5": (lambda: build_H(example6_data(40), PI / 2, 100.5), "n_terms=100.5", 8),
    "sample_potential-10.5": (lambda: sample_potential(np.cos, 10.5), "n_nodes=10.5", 8),
    "solve_kernel_field-65.5": (lambda: solve_kernel_field(build_H(example6_data(30), PI / 2, 400), 65.5),
                                "x_nodes=65.5", 5),
}


@pytest.mark.parametrize("case", sorted(COUNT_CASES))
def test_count_arguments_must_be_integers(case):
    call, named, floor = COUNT_CASES[case]
    with pytest.raises(ConfigError, match=f"{named} is not an integer of at least {floor}"):
        call()


def test_count_arguments_take_numpy_integers():
    assert delta_sequence(1.0, np.int64(10)).n_max == 10
    assert solve_delta(1.0, np.int64(3)) == solve_delta(1.0, 3)
    assert example6_data(np.int64(5)).count == 5
    assert unperturbed_spectrum(1.0, np.int64(5)).count == 5
    assert sample_potential(np.cos, np.int64(9)).grid.n == 9


def test_grid_function_refusals_name_their_cause():
    grid = trapezoid_grid(np.linspace(0.0, PI, 9))
    with pytest.raises(ConfigError, match="values length 8 does not match the grid's 9 nodes"):
        GridFunction(grid, np.ones(8))
    values = np.ones(9)
    values[4] = -np.inf
    with pytest.raises(ConfigError, match=r"must be finite: values\[4\] = -inf"):
        GridFunction(grid, values)


@pytest.mark.parametrize("nodes, match", [
    (np.linspace(0.0, PI, 7), "CSV grid needs at least 8 nodes, got 7"),
    (np.linspace(0.0, 3.0, 9), r"must span \[0, pi\], got 9 nodes from 0\.0 to 3\.0"),
    (np.linspace(0.5, PI, 9), r"must span \[0, pi\], got 9 nodes from 0\.5 to 3\.14159"),
], ids=["7-nodes", "short", "late-start"])
def test_potential_csv_grid_refusals_name_their_cause(tmp_path, nodes, match):
    path = tmp_path / "q.csv"
    write_grid_function_csv(GridFunction(Grid(nodes, np.ones(nodes.size)), np.cos(nodes)), path)
    with pytest.raises(ConfigError, match=match):
        read_potential_csv(path)


def test_trapezoid_grid_on_any_uniform_span():
    g = trapezoid_grid(np.linspace(0.5, 2.5, 5))
    assert np.array_equal(g.weights, [0.25, 0.5, 0.5, 0.5, 0.25])
    for bad in (np.array([0.0, 0.1, 0.3, 0.6]), np.array([0.0, 1.0, 0.5]), np.array([1.0])):
        with pytest.raises(ConfigError):
            trapezoid_grid(bad)


@pytest.mark.parametrize("rule", RULES)
def test_weights_sum_to_pi(rule):
    g = RULES[rule](10)
    assert abs(g.weights.sum() - PI) < 1e-12 * PI
    assert np.all(g.weights > 0)
    assert np.all(np.diff(g.nodes) > 0)


def test_gauss_integrates_sine():
    g = _gauss(64)
    f = GridFunction(g, np.sin(g.nodes))
    assert abs(integrate(f) - 2.0) < 1e-14


def test_integrate_constant_and_linear():
    g = _gauss(64)
    assert abs(integrate(GridFunction(g, np.ones(g.n))) - PI) < 1e-12
    assert abs(integrate(GridFunction(g, g.nodes)) - PI**2 / 2) < 1e-12


def test_integrate_oscillatory_square():
    g = _gauss(64)
    f = GridFunction(g, np.sin(3.5 * g.nodes) ** 2)
    assert abs(integrate(f) - PI / 2) < 1e-12


@pytest.mark.parametrize("rule", RULES)
def test_quadrature_polynomial_exactness(rule):
    # trapezoid: linear; gauss-n: degree 2n-1
    deg = {"uniform-trapezoid": 1, "gauss-legendre": 17}[rule]
    n = 9
    g = RULES[rule](n)
    coeffs = np.arange(1, deg + 2, dtype=float)
    poly = np.polynomial.Polynomial(coeffs)
    exact = poly.integ()(PI) - poly.integ()(0.0)
    got = integrate(GridFunction(g, poly(g.nodes)))
    assert abs(got - exact) < 1e-12 * max(1.0, abs(exact))


def test_grid_refinement_improves():
    exact = 2.0
    errs = []
    for n in (16, 32, 64):
        g = _trapezoid(n)
        errs.append(abs(integrate(GridFunction(g, np.sin(g.nodes))) - exact))
    assert errs[1] < errs[0] and errs[2] < errs[1]


# Spline stands in for scipy's CubicSpline, which the tests keep as reference;
# on two and three nodes both are the line and the parabola through them
SPLINE_NODES = {**{f"uniform-{n}": np.linspace(0.0, PI, n) for n in (2, 3, 5, 8, 129, 513)},
                "uneven-3": np.array([0.0, 0.4, PI]), "gauss-64": gauss_rule(64, 0.0, PI)[0]}


@pytest.mark.parametrize("case", sorted(SPLINE_NODES))
def test_spline_matches_scipy_cubic_spline(case):
    from scipy.interpolate import CubicSpline
    x = SPLINE_NODES[case]
    y = np.cos(3.0 * x) + np.random.default_rng(x.size).normal(size=x.size)
    ours, ref = Spline(x, y), CubicSpline(x, y)
    # inside, at every node, past either end (each end piece continued) and NaN
    pts = np.concatenate([np.linspace(-1.0, PI + 1.0, 1001), x, [np.nan]])
    got, want = ours(pts), ref(pts)
    assert np.isnan(got[-1])
    # bound: 1e-14 of the largest value (the two build and evaluate alike)
    assert np.max(np.abs(got[:-1] - want[:-1])) <= 1e-14 * np.max(np.abs(want[:-1]))
    # node slopes against the derivative spline at the nodes: 1e-12 of the
    # largest (the last node is read from the last piece's polynomial there)
    slopes = ref.derivative()(x)
    assert np.max(np.abs(ours.slopes - slopes)) <= 1e-12 * np.max(np.abs(slopes))
    assert ours(1.0).ndim == 0 and ours(np.ones((2, 3))).shape == (2, 3)


@pytest.mark.parametrize("nodes, values", [
    ([0.0], [1.0]),
    ([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 1.0, 0.0]),
    ([0.0, 1.0, 2.0, np.inf], [0.0, 1.0, 2.0, 3.0]),
    ([0.0, 1.0, 2.0, 3.0], [0.0, np.nan, 2.0, 3.0]),
    ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0]),
], ids=["1-node", "repeated-node", "infinite-node", "nan-value", "short-values"])
def test_spline_refuses_bad_nodes_and_values(nodes, values):
    with pytest.raises(ConfigError, match="spline"):
        Spline(np.array(nodes), np.array(values))


def test_boundary_angle_range():
    with pytest.raises(ConfigError):
        BoundaryAngle(0.0)
    with pytest.raises(ConfigError):
        BoundaryAngle(PI)
    assert BoundaryAngle(PI / 2).cot == pytest.approx(0.0, abs=1e-16)


def test_potential_mean():
    q = sample_potential(np.cos, 257)
    assert abs(q.mean) < 1e-10  # mean of cos over [0, pi] is 0 (trapezoid-exact here)


# --- analytic continuation helpers -----------------------------------------


def test_musin_branches():
    assert musin(4.0, 1.0) == pytest.approx(np.sin(2.0) / 2.0, rel=1e-15)
    assert musin(-4.0, 1.0) == pytest.approx(np.sinh(2.0) / 2.0, rel=1e-15)
    assert musin(0.0, 0.7) == pytest.approx(0.7, rel=1e-15)


def test_mucos_branches():
    assert mucos(4.0, 1.0) == pytest.approx(np.cos(2.0), rel=1e-15)
    assert mucos(-4.0, 1.0) == pytest.approx(np.cosh(2.0), rel=1e-15)
    assert mucos(0.0, 0.7) == pytest.approx(1.0, rel=1e-15)


def _norming(mu, x):
    # unperturbed_norming ignores x; mu is broadcast to the shape f(mu, x) has
    return unperturbed_norming(np.broadcast_to(mu, np.broadcast(mu, x).shape))


# each function with its small-mu band
CONTINUED = [(musin, 1e-6), (mucos, 1e-6), (mucosm1, 1e-14), (_norming, 1e-4)]
CONTINUED_IDS = ["musin", "mucos", "mucosm1", "unperturbed_norming"]


@pytest.mark.parametrize("f, band", CONTINUED, ids=CONTINUED_IDS)
def test_all_positive_mu_matches_the_masked_path(f, band):
    # an all-positive mu above the band takes the broadcasting path; the same
    # entries inside a mixed-sign array take the masked path and give the
    # same bits
    pos = np.array([2 * band, 0.3, 1.0, 4.0, 37.5, 1e4])
    mixed = np.concatenate([[-9.0, 0.0, band / 2], pos])
    x = np.linspace(0.0, PI, 33)
    assert f(pos[:, None], x).tobytes() == f(mixed[:, None], x)[3:].tobytes()
    assert f(pos, 0.7).tobytes() == f(mixed, 0.7)[3:].tobytes()
    assert f(4.0, x).tobytes() == f(np.array([-1.0, 4.0])[:, None], x)[1].tobytes()
    assert f(4.0, 1.0) == f(np.array([-1.0, 4.0]), 1.0)[1]
    assert isinstance(f(4.0, 1.0), float)


@pytest.mark.parametrize("f", [mucosm1, musin, mucos, _norming],
                         ids=["mucosm1", "musin", "mucos", "unperturbed_norming"])
def test_nan_mu_takes_the_masked_path(f):
    # NaN is not above the small-mu band, and falls in none of the masks:
    # the masked path gives NaN for it, the other entries' values, and no
    # RuntimeWarning
    mu = np.array([np.nan, 4.0, 9.0])
    x = np.linspace(0.0, PI, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = f(mu[:, None], x)
    assert np.isnan(out[0]).all()
    assert out[1:].tobytes() == f(mu[1:, None], x).tobytes()


@given(st.floats(min_value=-1e-5, max_value=1e-5), st.floats(min_value=0.01, max_value=6.2))
def test_mucosm1_continuous_through_zero(mu, t):
    val = mucosm1(mu, t)
    limit = -t * t / 2.0
    assert abs(val - limit) <= abs(mu) * t**4 / 20.0 + 1e-13


@given(st.floats(min_value=0.01, max_value=50.0), st.floats(min_value=0.0, max_value=6.2))
def test_mucosm1_matches_definition(mu, t):
    assert mucosm1(mu, t) == pytest.approx((np.cos(np.sqrt(mu) * t) - 1.0) / mu, abs=1e-12)


@given(st.floats(min_value=-1.0, max_value=30.0), st.floats(min_value=0.0, max_value=3.14))
def test_musin_derivative_consistency(mu, t):
    # d/dx musin = mucos
    h = 1e-6
    fd = (musin(mu, t + h) - musin(mu, max(t - h, 0.0))) / (h + min(t, h))
    assert fd == pytest.approx(mucos(mu, t), abs=5e-5 * (1 + abs(mu)))


# --- serialization ----------------------------------------------------------


def test_grid_function_csv_roundtrip(tmp_path):
    q = sample_potential(lambda x: np.cos(3 * x) + x, 65)
    path = tmp_path / "q.csv"
    write_grid_function_csv(q, path)
    back = read_potential_csv(path)
    assert np.array_equal(back.values, q.values)
    assert np.allclose(back.grid.nodes, q.grid.nodes, atol=1e-15)
    # the one 17-digit writer reads back bit for bit in every column
    columns = (q.grid.nodes, q.values, np.exp(q.values) / 3.0)
    write_csv(tmp_path / "three.csv", "x,q,e", *columns)
    assert (tmp_path / "three.csv").read_text().partition("\n")[0] == "x,q,e"
    back = np.loadtxt(tmp_path / "three.csv", delimiter=",", skiprows=1, unpack=True)
    assert all(got.tobytes() == want.tobytes() for got, want in zip(back, columns, strict=True))


def _csv(xs, header="x,value", value="1.0"):
    return header + "\n" + "".join(f"{float(x)!r},{value}\n" for x in xs)


_X9 = np.linspace(0.0, PI, 9)
_UNEVEN = "trapezoid nodes must be strictly increasing and uniformly spaced"
# potential CSVs that the reader refuses, with what its error names: each
# names one way a grid can be malformed (out of order, uneven, too short,
# not spanning [0, pi], mislabelled, not numeric, not two columns)
MALFORMED_CSV = {
    "decreasing": (_csv(np.concatenate([_X9[:3], _X9[4:2:-1], _X9[5:]])), _UNEVEN),
    "non-uniform": (_csv(PI * np.linspace(0.0, 1.0, 9) ** 2), _UNEVEN),
    "five-nodes": (_csv(np.linspace(0.0, PI, 5)), "CSV grid needs at least 8 nodes, got 5"),
    "span-0-3": (_csv(np.linspace(0.0, 3.0, 9)), r"CSV grid must span \[0, pi\], got 9 nodes from 0.0 to 3.0"),
    "span-0.5-0.69": (_csv(0.5 + 0.01 * np.arange(20)),
                      r"CSV grid must span \[0, pi\], got 20 nodes from 0.5 to 0.69"),
    "wrong-header": (_csv(_X9, header="t,q"), "expected header 'x,value'"),
    "text-values": (_csv(_X9, value="abc"), "malformed CSV"),
    "three-columns": (_csv(_X9, value="1.0,2.0"), "expected two columns"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CSV))
def test_malformed_potential_csv_is_refused(case, tmp_path):
    text, match = MALFORMED_CSV[case]
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=match):
        read_potential_csv(path)


@given(st.integers(min_value=12, max_value=40), st.floats(min_value=0.2, max_value=3.0))
def test_spectral_json_roundtrip(count, beta):
    lam = np.arange(count) + 0.37
    data = SpectralData(beta, lam**2, 1.0 / lam**2, c_fit=0.25)
    back = SpectralData.from_json(data.to_json())
    assert np.array_equal(back.mu, data.mu)
    assert np.array_equal(back.norming, data.norming)
    assert back.beta == data.beta and back.c_fit == data.c_fit


def test_spectral_json_embeds_expected_keys():
    data = SpectralData(1.0, np.arange(12) + 0.5, np.ones(12))
    doc = json.loads(data.to_json())
    assert set(doc) == {"beta", "count", "mu", "a", "c_fit"}
    assert doc["count"] == 12


def test_spectral_data_errors_name_the_offending_value():
    with pytest.raises(ConfigError, match="equal length, got 12 and 11"):
        SpectralData(1.0, np.arange(12) + 0.5, np.ones(11))
    mu = np.arange(12) + 0.5
    mu[7] = np.nan
    with pytest.raises(ConfigError, match=r"must be finite: mu\[7\] = nan"):
        SpectralData(1.0, mu, np.ones(12))
    a = np.ones(12)
    a[3] = np.inf
    with pytest.raises(ConfigError, match=r"must be finite: norming\[3\] = inf"):
        SpectralData(1.0, np.arange(12) + 0.5, a)
    with pytest.raises(ConfigError, match=r"norming must be a 1-D array, got shape \(3, 4\)"):
        SpectralData(1.0, np.arange(12) + 0.5, np.ones((3, 4)))


_GOOD_JSON = SpectralData(1.0, np.arange(12) + 0.5, np.ones(12)).to_json()


def _json_with(**fields):
    return json.dumps({**json.loads(_GOOD_JSON), **fields})


# spectral JSON that the reader refuses, with what its error names
MALFORMED_JSON = {
    "cut-off": (_GOOD_JSON[:60], "spectral JSON is malformed"),
    "not-an-object": ("[1, 2, 3]", "must be an object, got list"),
    "text-mu": (_json_with(mu="abc"), "field 'mu' is malformed"),
    "text-beta": (_json_with(beta="x"), "field 'beta' is malformed"),
    "text-count": (_json_with(count="n"), "field 'count' is malformed"),
    # a count is a JSON integer: not truncated from 12.9, read from "12" or True
    "fractional-count": (_json_with(count=12.9), r"field 'count' is malformed: .*12\.9"),
    "string-count": (_json_with(count="12"), "field 'count' is malformed"),
    "bool-count": (_json_with(count=True), "field 'count' is malformed"),
    "2x2-arrays": (_json_with(count=4, mu=[[1.0, 4.0], [9.0, 16.0]], a=[[1.0, 1.0], [1.0, 1.0]]),
                   r"mu must be a 1-D array, got shape \(2, 2\)"),
    # float() and numpy read true as 1 and "0.5" as 0.5: a number field is a JSON number
    "bool-beta": (_json_with(beta=True), "field 'beta' is malformed: must be a number, got True"),
    "bool-mu": (_json_with(mu=[True] + list(range(2, 13))),
                "field 'mu' is malformed: entry 0 must be a number, got True"),
    "string-mu": (_json_with(mu=["0.5"] + list(range(2, 13))),
                  "field 'mu' is malformed: entry 0 must be a number, got '0.5'"),
    "string-a": (_json_with(a=[1.0] * 5 + ["1.0"] * 7),
                 "field 'a' is malformed: entry 5 must be a number, got '1.0'"),
    "string-c_fit": (_json_with(c_fit="0.1"), "field 'c_fit' is malformed: must be a number, got '0.1'"),
    "no-mu": (json.dumps({k: v for k, v in json.loads(_GOOD_JSON).items() if k != "mu"}),
              "missing field 'mu'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
def test_malformed_spectral_json_names_the_field(case):
    text, match = MALFORMED_JSON[case]
    with pytest.raises(ConfigError, match=match):
        SpectralData.from_json(text)


def test_spectral_json_count_mismatch_names_both_counts():
    doc = json.loads(SpectralData(1.0, np.arange(12) + 0.5, np.ones(12)).to_json())
    doc["count"] = 13
    with pytest.raises(ConfigError, match="count 13 disagrees with array length 12"):
        SpectralData.from_json(json.dumps(doc))


def test_frozen_arrays_are_copies():
    # freezing an instance's arrays leaves the caller's own arrays writable
    mu, a = np.arange(12) + 0.5, np.ones(12)
    d = SpectralData(1.0, mu, a)
    assert d.mu is not mu and d.norming is not a
    mu[0] = 3.0
    a[0] = 2.0
    assert d.mu[0] == 0.5 and d.norming[0] == 1.0
    nodes = np.linspace(0.0, PI, 9)
    g = trapezoid_grid(nodes)
    nodes[1] = 0.0
    assert g.nodes[1] > 0.0
    for arr in (d.mu, d.norming, g.nodes, g.weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
