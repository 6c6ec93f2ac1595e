"""Grids, quadrature, interpolation and the shared domain types.

Everything on the interval [0, pi]. All types are frozen dataclasses or
hold read-only arrays, so instances can be shared freely across threads;
every function here is pure.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import solve_banded

from .errors import ConfigError

PI = float(np.pi)

MIN_GRID_NODES = 8

#: |mu| below this is treated as an exact zero eigenvalue (degenerate rules).
ZERO_MU_TOL = 1e-10


def _check_count(name: str, value, floor: int) -> None:
    """Refuse a count that is not an integer of at least ``floor``: a bool
    (an int subclass) or a float is refused, a numpy integer accepted."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < floor:
        raise ConfigError(f"{name}={value!r} is not an integer of at least {floor}")


def _frozen(a) -> np.ndarray:
    """A read-only copy, so freezing never touches the caller's array."""
    out = np.array(a, dtype=float, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Grid:
    """Quadrature grid on [0, pi]: strictly increasing nodes, positive weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", _frozen(self.nodes))
        object.__setattr__(self, "weights", _frozen(self.weights))

    @property
    def n(self) -> int:
        return self.nodes.size


def trapezoid_grid(nodes) -> Grid:
    """Trapezoid rule on uniformly spaced nodes (any span, at least two
    nodes): step (x[-1] - x[0])/(n - 1), halved at both ends.  The one
    builder of a trapezoid grid; ``trapezoid_grid(np.linspace(0.0, PI, n))``
    is the uniform grid of n nodes on [0, pi]."""
    nodes = np.asarray(nodes, dtype=float)
    h = np.diff(nodes)
    if h.size == 0 or not np.all(h > 0) or h.max() - h.min() > 1e-9 * h.mean():
        raise ConfigError("trapezoid nodes must be strictly increasing and uniformly spaced")
    step = (nodes[-1] - nodes[0]) / (nodes.size - 1)
    weights = np.full(nodes.size, step)
    weights[0] = weights[-1] = step / 2.0
    return Grid(nodes, weights)


@lru_cache(maxsize=None)
def _reference_gauss(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], read-only because the cache
    hands the same arrays to every caller."""
    xi, wi = leggauss(n_nodes)
    return _frozen(xi), _frozen(wi)


def gauss_rule(n_nodes: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped to an arbitrary interval [a, b];
    ``Grid(*gauss_rule(n, 0.0, PI))`` is the n-node Gauss grid of [0, pi]."""
    xi, wi = _reference_gauss(n_nodes)
    half = (b - a) / 2.0
    return a + (xi + 1.0) * half, wi * half


@dataclass(frozen=True)
class GridFunction:
    """Real samples attached to a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))
        if self.values.size != self.grid.n:
            raise ConfigError(f"values length {self.values.size} does not match the grid's "
                              f"{self.grid.n} nodes")
        bad = np.flatnonzero(~np.isfinite(self.values))
        if bad.size:
            raise ConfigError(f"grid function values must be finite: values[{bad[0]}] = "
                              f"{self.values[bad[0]]}")


@dataclass(frozen=True)
class Potential(GridFunction):
    """Sampled potential q on [0, pi]; its mean is (1/pi) * integral of q."""

    @property
    def mean(self) -> float:
        return integrate(self) / PI


@dataclass(frozen=True)
class BoundaryAngle:
    """Robin angle at the right endpoint; the left condition is Dirichlet.

    The admissible range (0, pi) keeps sin(beta) > 0, so the right condition
    y(pi) cos(beta) + y'(pi) sin(beta) = 0 never degenerates to Dirichlet.
    """

    beta: float

    def __post_init__(self):
        if not (0.0 < self.beta < PI) or np.sin(self.beta) <= 0.0:
            raise ConfigError(f"beta={self.beta} must lie strictly inside (0, pi)")

    @property
    def cot(self) -> float:
        return float(np.cos(self.beta) / np.sin(self.beta))


def as_angle(beta: "BoundaryAngle | float") -> BoundaryAngle:
    return beta if isinstance(beta, BoundaryAngle) else BoundaryAngle(float(beta))


def integrate(f: GridFunction) -> float:
    """Quadrature of a grid function with its own rule's weights."""
    return float(np.dot(f.grid.weights, f.values))


class Spline:
    """The not-a-knot cubic spline through (nodes, values), for strictly
    increasing nodes, continued past either end by its end piece; calling
    it evaluates the spline at an array of points.  On two nodes it is the
    line and on three the parabola through them, as in ``CubicSpline``.

    ``slopes``, read-only, is its derivative at the nodes: the unknowns of
    one tridiagonal solve (``solve_banded``).  Each piece is the cubic
    Hermite interpolant of its end values and slopes.  The system, the
    piece coefficients and the order of evaluation are those of
    ``scipy.interpolate.CubicSpline``, so the two agree to roundoff (to the
    bit with scipy 1.17).
    """

    def __init__(self, nodes, values):
        x = np.asarray(nodes, dtype=float)
        y = np.asarray(values, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise ConfigError(f"a spline needs at least 2 nodes and one value per node, got "
                              f"shapes {x.shape} and {y.shape}")
        dx = np.diff(x)
        if not (np.all(dx > 0) and np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ConfigError("spline nodes must be finite and strictly increasing, its values finite")
        slope = np.diff(y) / dx
        band = np.zeros((3, x.size))  # rows: super-diagonal, diagonal, sub-diagonal
        band[0, 2:] = dx[:-1]
        band[1, 1:-1] = 2.0 * (dx[:-1] + dx[1:])
        band[2, :-2] = dx[1:]
        rhs = np.empty(x.size)
        rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        if x.size == 2:  # the line through both points
            band[1], rhs[:] = 1.0, slope[0]
        elif x.size == 3:  # the parabola through the three points: s0 + s1 = 2 slope0, s1 + s2 = 2 slope1
            band[1, 0] = band[0, 1] = band[1, -1] = band[2, -2] = 1.0
            rhs[0], rhs[-1] = 2.0 * slope[0], 2.0 * slope[1]
        else:  # not-a-knot: the third derivative is continuous at the second and the last-but-one node
            d0, d1 = x[2] - x[0], x[-1] - x[-3]
            band[1, 0], band[0, 1], band[1, -1], band[2, -2] = dx[1], d0, dx[-2], d1
            rhs[0] = ((dx[0] + 2.0 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
            rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        s = solve_banded((1, 1), band, rhs, overwrite_ab=True, overwrite_b=True, check_finite=False)
        t = (s[:-1] + s[1:] - 2.0 * slope) / dx
        self.nodes = _frozen(x)
        self.slopes = _frozen(s)
        # piece i is c0 u^3 + c1 u^2 + c2 u + c3 in u = x - nodes[i]
        self._coef = (t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1].copy())

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(self.nodes, x, side="right") - 1, 0, self.nodes.size - 2)
        u = x - self.nodes[i]
        u2 = u * u
        c0, c1, c2, c3 = self._coef
        return c3[i] + c2[i] * u + c1[i] * u2 + c0[i] * (u2 * u)


def interpolant(f: GridFunction) -> Spline:
    """The not-a-knot cubic :class:`Spline` through the samples."""
    return Spline(f.grid.nodes, f.values)


# ---------------------------------------------------------------------------
# Analytic continuation helpers: trigonometric expressions in lambda = sqrt(mu)
# extended through mu <= 0 (hyperbolic for mu < 0, polynomial limits at 0),
# each one call to _continued with its own band and branch formulas.
# ---------------------------------------------------------------------------

_SMALL_MU = 1e-6


def _continued(mu, x, band, above, below, near):
    """f(mu, x) continued through mu <= 0: ``above(mu, x)`` where mu > band,
    ``below`` where mu < -band and the series ``near`` where |mu| <= band,
    each branch called on its own entries of the broadcast mu and x.

    When every mu is above the band it is ``above`` on the whole arrays, by
    broadcasting with no masks; the values are the masked path's.  A NaN mu
    is above no band and falls in no mask, so it gives NaN.  A 0-d result
    is returned as a float."""
    mu = np.asarray(mu, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.all(mu > band):
        out = above(mu, x)
    else:
        mu, x = np.broadcast_arrays(mu, x)
        out = np.full(mu.shape, np.nan)
        for mask, branch in ((mu > band, above), (mu < -band, below), (np.abs(mu) <= band, near)):
            if mask.any():
                out[mask] = branch(mu[mask], x[mask])
    return out if out.ndim else float(out)


def musin(mu, x):
    """sin(lambda x)/lambda as a function of mu = lambda^2; equals x at mu = 0."""
    def above(m, t):
        lam = np.sqrt(m)
        return np.sin(lam * t) / lam

    def below(m, t):
        k = np.sqrt(-m)
        return np.sinh(k * t) / k

    def near(m, t):
        t2 = t * t
        return t * (1.0 - m * t2 / 6.0 * (1.0 - m * t2 / 20.0 * (1.0 - m * t2 / 42.0)))

    return _continued(mu, x, _SMALL_MU, above, below, near)


def mucos(mu, x):
    """cos(lambda x) as a function of mu = lambda^2 (cosh for mu < 0)."""
    def near(m, t):
        t2 = t * t
        return 1.0 - m * t2 / 2.0 * (1.0 - m * t2 / 12.0 * (1.0 - m * t2 / 30.0))

    return _continued(mu, x, _SMALL_MU, lambda m, t: np.cos(np.sqrt(m) * t),
                      lambda m, t: np.cosh(np.sqrt(-m) * t), near)


def mucosm1(mu, x):
    """(cos(lambda x) - 1)/mu, stable for every mu; equals -x^2/2 at mu = 0.

    Uses cos(z) - 1 = -2 sin^2(z/2) (and the sinh analogue), so there is no
    cancellation even for tiny |mu|.
    """
    def above(m, t):
        s = np.sin(np.sqrt(m) * t / 2.0)
        return -2.0 * s * s / m

    def below(m, t):
        s = np.sinh(np.sqrt(-m) * t / 2.0)
        return 2.0 * s * s / m

    return _continued(mu, x, 1e-14, above, below, lambda m, t: -t ** 2 / 2.0)


# ---------------------------------------------------------------------------
# Spectral data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralData:
    """Paired eigenvalue/norming-constant sequences with their boundary angle.

    ``mu`` holds the (possibly negative) eigenvalues in increasing order;
    ``norming`` the squared eigenfunction norms.  ``c_fit`` is the drift
    constant of the eigenvalue tail, fitted from the data or supplied.
    Construction only enforces shape and finiteness; admissibility proper is
    the job of :func:`invspec.inverse.validate`, which must be able to report
    on defective inputs instead of refusing to hold them.
    """

    beta: float
    mu: np.ndarray
    norming: np.ndarray
    c_fit: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "mu", _frozen(self.mu))
        object.__setattr__(self, "norming", _frozen(self.norming))
        for name, arr in (("mu", self.mu), ("norming", self.norming)):
            if arr.ndim != 1:
                raise ConfigError(f"{name} must be a 1-D array, got shape {arr.shape}")
        if self.mu.size != self.norming.size:
            raise ConfigError(f"mu and norming must have equal length, got {self.mu.size} "
                              f"and {self.norming.size}")
        for name, arr in (("mu", self.mu), ("norming", self.norming)):
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                raise ConfigError(f"spectral data must be finite: {name}[{bad[0]}] = {arr[bad[0]]}")

    @property
    def count(self) -> int:
        return self.mu.size

    def to_json_dict(self) -> dict:
        return {
            "beta": float(self.beta),
            "count": int(self.count),
            "mu": [float(v) for v in self.mu],
            "a": [float(v) for v in self.norming],
            "c_fit": None if self.c_fit is None else float(self.c_fit),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    @staticmethod
    def from_json(text: str) -> "SpectralData":
        """Parse spectral JSON; a malformed document or field is refused with
        a ConfigError that names it."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"spectral JSON is malformed: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"spectral JSON must be an object, got {type(doc).__name__}")

        def read(name, convert):
            if name not in doc:
                raise ConfigError(f"spectral JSON missing field {name!r}")
            try:
                return convert(doc[name])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"spectral JSON field {name!r} is malformed: {exc}") from exc

        def number(v):
            if isinstance(v, (bool, str)):  # float() reads true as 1.0 and "0.5" as 0.5
                raise TypeError(f"must be a number, got {v!r}")
            return float(v)

        def floats(v):
            for i, x in enumerate(v if isinstance(v, list) else ()):
                if isinstance(x, (bool, str)):
                    raise TypeError(f"entry {i} must be a number, got {x!r}")
            return np.asarray(v, dtype=float)

        def integer(v):
            if type(v) is not int:  # bool is an int subclass, and int() truncates 64.9
                raise TypeError(f"must be an integer, got {v!r}")
            return v

        data = SpectralData(
            beta=read("beta", number),
            mu=read("mu", floats),
            norming=read("a", floats),
            c_fit=None if doc.get("c_fit") is None else read("c_fit", number),
        )
        if "count" in doc and read("count", integer) != data.count:
            raise ConfigError(f"spectral JSON count {doc['count']} disagrees with "
                              f"array length {data.count}")
        return data


# ---------------------------------------------------------------------------
# CSV serialization of grid functions (x,value with 17 significant digits)
# ---------------------------------------------------------------------------


def write_grid_function_csv(f: GridFunction, path) -> None:
    with open(path, "w") as fh:
        fh.write("x,value\n")
        for x, v in zip(f.grid.nodes, f.values):
            fh.write(f"{x:.17g},{v:.17g}\n")


def _grid_from_nodes(nodes: np.ndarray) -> Grid:
    nodes = np.asarray(nodes, dtype=float)
    if nodes.size < MIN_GRID_NODES:
        raise ConfigError(f"CSV grid needs at least {MIN_GRID_NODES} nodes, got {nodes.size}")
    if abs(nodes[0]) > 1e-9 or abs(nodes[-1] - PI) > 1e-9:
        raise ConfigError(f"CSV grid must span [0, pi], got {nodes.size} nodes from "
                          f"{float(nodes[0])!r} to {float(nodes[-1])!r}")
    nodes = nodes.copy()
    nodes[0], nodes[-1] = 0.0, PI  # absorb roundoff from the 17-digit format
    return trapezoid_grid(nodes)


def read_potential_csv(path) -> Potential:
    rows = _read_csv_rows(path)
    return Potential(_grid_from_nodes(rows[:, 0]), rows[:, 1])


def read_text(path) -> str:
    """The text of an input file, which must be UTF-8: other bytes are a
    ConfigError that names the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc


def _read_csv_rows(path) -> np.ndarray:
    header, _, body = read_text(path).partition("\n")
    if header.strip().replace(" ", "") != "x,value":
        raise ConfigError(f"{path}: expected header 'x,value'")
    try:
        rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed CSV ({exc})") from exc
    if rows.shape[1] != 2:
        raise ConfigError(f"{path}: expected two columns")
    return rows


def sample_potential(func: Callable[[np.ndarray], np.ndarray], n_nodes: int = 257) -> Potential:
    """Sample a callable potential on the uniform trapezoid grid of n_nodes
    (at least 8) nodes on [0, pi]."""
    _check_count("n_nodes", n_nodes, MIN_GRID_NODES)
    grid = trapezoid_grid(np.linspace(0.0, PI, n_nodes))
    return Potential(grid, np.asarray(func(grid.nodes), dtype=float) * np.ones(grid.n))
