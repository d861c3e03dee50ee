"""Closed-curve parametrizations, boundary quadrature grids, interior point sets.

All curves are 2*pi-periodic and counterclockwise with outward unit normals.
Quadrature uses the midpoint-offset periodic trapezoid rule: nodes
t_l = 2 pi (l - 1/2) / n, uniform weights 2 pi / n.  On the square the
midpoint offset guarantees no node ever lands on a corner.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


class BoundaryCurve:
    """Smooth (or piecewise-smooth) closed curve gamma: [0, 2 pi) -> R^2.

    Subclasses provide ``point``, ``derivative`` and ``second_derivative``; the
    base class derives speed, outward normal and signed curvature.  A subclass
    that overrides ``curvature`` needs no ``second_derivative``.  All
    evaluators are vectorized over the trailing parameter axis.
    """

    kind = "custom"

    def point(self, t):
        raise NotImplementedError

    def derivative(self, t):
        raise NotImplementedError

    def second_derivative(self, t):
        raise NotImplementedError

    def speed(self, t):
        d = self.derivative(t)
        return np.hypot(d[..., 0], d[..., 1])

    def normal(self, t):
        """Outward unit normal (rotate the tangent by -pi/2 for a CCW curve)."""
        d = self.derivative(t)
        s = np.hypot(d[..., 0], d[..., 1])
        return np.stack([d[..., 1] / s, -d[..., 0] / s], axis=-1)

    def curvature(self, t):
        """Signed curvature (x' y'' - y' x'') / |gamma'|^3; positive for CCW convex arcs."""
        d = self.derivative(t)
        dd = self.second_derivative(t)
        s = np.hypot(d[..., 0], d[..., 1])
        return (d[..., 0] * dd[..., 1] - d[..., 1] * dd[..., 0]) / s**3

    def distance(self, pts):
        """Approximate unsigned distance from points (m, 2) to the curve: the
        distance to the nearest of 2048 equispaced curve points."""
        poly = self.point(TWO_PI * np.arange(2048) / 2048)
        d = pts[:, None, :] - poly[None, :, :]
        return np.hypot(d[..., 0], d[..., 1]).min(axis=1)


class DiskCurve(BoundaryCurve):
    kind = "disk"

    def __init__(self, radius=1.0, center=(0.0, 0.0)):
        if radius <= 0:
            raise ValueError("disk radius must be positive")
        self.radius = float(radius)
        self.center = (float(center[0]), float(center[1]))

    def point(self, t):
        t = np.asarray(t, dtype=np.float64)
        return np.stack([self.center[0] + self.radius * np.cos(t),
                         self.center[1] + self.radius * np.sin(t)], axis=-1)

    def derivative(self, t):
        t = np.asarray(t, dtype=np.float64)
        return np.stack([-self.radius * np.sin(t), self.radius * np.cos(t)], axis=-1)

    def second_derivative(self, t):
        t = np.asarray(t, dtype=np.float64)
        return np.stack([-self.radius * np.cos(t), -self.radius * np.sin(t)], axis=-1)


class SquareCurve(BoundaryCurve):
    """The unit square [0, 1]^2 traversed counterclockwise.

    The four edges map affinely onto [0, 2 pi); the speed is the constant
    4 / (2 pi).  Corners sit at multiples of pi/2 where derivatives are
    taken from the following edge; quadrature nodes never hit them.
    """

    kind = "square"
    # edge e runs from corner e in direction e
    _CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    _DIRECTIONS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])

    def _edge_pos(self, t):
        u = (np.asarray(t, dtype=np.float64) % TWO_PI) * (4.0 / TWO_PI)
        e = np.minimum(np.floor(u).astype(int), 3)
        return e, u - e

    def point(self, t):
        e, s = self._edge_pos(t)
        return self._CORNERS[e] + s[..., None] * self._DIRECTIONS[e]

    def derivative(self, t):
        e, _ = self._edge_pos(t)
        return (4.0 / TWO_PI) * self._DIRECTIONS[e]  # constant speed

    def curvature(self, t):
        t = np.asarray(t, dtype=np.float64)
        return np.zeros(t.shape)


class PetalCurve(BoundaryCurve):
    """Flower-shaped star domain r(theta) = base * (1 + amp * sin(lobes * theta))."""

    kind = "petal"

    def __init__(self, base=0.6, amp=0.25, lobes=6):
        if base <= 0 or not (0 <= amp < 1):
            raise ValueError("petal requires base > 0 and 0 <= amp < 1")
        self.base = float(base)
        self.amp = float(amp)
        self.lobes = int(lobes)

    def radius(self, t):
        return self.base * (1.0 + self.amp * np.sin(self.lobes * np.asarray(t, dtype=np.float64)))

    def _r_dr_ddr(self, t):
        t = np.asarray(t, dtype=np.float64)
        r = self.base * (1.0 + self.amp * np.sin(self.lobes * t))
        dr = self.base * self.amp * self.lobes * np.cos(self.lobes * t)
        ddr = -self.base * self.amp * self.lobes**2 * np.sin(self.lobes * t)
        return r, dr, ddr

    def point(self, t):
        t = np.asarray(t, dtype=np.float64)
        r, _, _ = self._r_dr_ddr(t)
        return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)

    def derivative(self, t):
        t = np.asarray(t, dtype=np.float64)
        r, dr, _ = self._r_dr_ddr(t)
        return np.stack([dr * np.cos(t) - r * np.sin(t),
                         dr * np.sin(t) + r * np.cos(t)], axis=-1)

    def second_derivative(self, t):
        t = np.asarray(t, dtype=np.float64)
        r, dr, ddr = self._r_dr_ddr(t)
        return np.stack([ddr * np.cos(t) - 2 * dr * np.sin(t) - r * np.cos(t),
                         ddr * np.sin(t) + 2 * dr * np.cos(t) - r * np.sin(t)], axis=-1)


def make_curve(kind, **params):
    """Factory for the three built-in curves.

    kind 'square': the unit square, no parameters; 'disk': radius, center;
    'petal': base (0.6), amp (0.25), lobes (6).  A config admits the square
    and the petal, the curves a learned backend serves; the disk's closed
    forms serve the BIE tests and demos.
    """
    curves = {cls.kind: cls for cls in (DiskCurve, SquareCurve, PetalCurve)}
    if kind not in curves:
        raise ValueError(f"unknown curve kind {kind!r}")
    return curves[kind](**params)


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Midpoint periodic-trapezoid nodes with cached geometry.

    Grids hash and compare by cache_key: n and the bytes of the node arrays,
    which is all a kernel build or GRF factor reads of a grid.  So memos
    keyed by a grid are keyed by its content, whatever class the curve is.
    """

    curve: BoundaryCurve
    t: np.ndarray
    weight: float  # uniform 2 pi / n
    points: np.ndarray
    normals: np.ndarray
    speeds: np.ndarray
    curvatures: np.ndarray

    @property
    def n(self):
        return self.t.shape[0]

    def length_estimate(self):
        return float(self.weight * np.sum(self.speeds))

    @functools.cached_property
    def cache_key(self):
        return (self.n,) + tuple(a.tobytes() for a in (self.points, self.normals,
                                                         self.speeds, self.curvatures))

    def __eq__(self, other):
        if not isinstance(other, QuadratureGrid):
            return NotImplemented
        return self.cache_key == other.cache_key

    def __hash__(self):
        return hash(self.cache_key)


def sample_quadrature(curve, n_bd):
    """Build the n_bd-node midpoint-trapezoid grid on a curve.

    Requires n_bd >= 8; on the square additionally n_bd divisible by 4 so
    nodes split evenly across the edges.
    """
    if n_bd < 8:
        raise ValueError("n_bd must be at least 8")
    if curve.kind == "square" and n_bd % 4 != 0:
        raise ValueError("square quadrature requires n_bd divisible by 4")
    t = TWO_PI * (np.arange(n_bd) + 0.5) / n_bd
    return QuadratureGrid(
        curve=curve,
        t=t,
        weight=TWO_PI / n_bd,
        points=curve.point(t),
        normals=curve.normal(t),
        speeds=curve.speed(t),
        curvatures=curve.curvature(t),
    )


@dataclass(frozen=True)
class InteriorGrid:
    """Evaluation points inside the domain."""

    points: np.ndarray

    @property
    def m(self):
        return self.points.shape[0]


def square_lattice(n, lo=0.0, hi=1.0):
    """Uniform n x n lattice on [lo, hi]^2 (inclusive), row-major flattened."""
    xs = np.linspace(lo, hi, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    return InteriorGrid(points=pts)


def petal_lattice(curve, spacing=0.03, margin=None):
    """Rejection-sampled Cartesian lattice inside a star-shaped petal curve.

    Keeps lattice points whose distance to the curve is at least ``margin``
    (default: one lattice spacing, where double-layer evaluation is still
    well resolved by the boundary quadrature).
    """
    if margin is None:
        margin = spacing
    rmax = curve.base * (1.0 + curve.amp)
    xs = np.arange(-rmax, rmax + spacing / 2, spacing)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    rr = np.hypot(pts[:, 0], pts[:, 1])
    inside = rr < curve.radius(theta)
    pts = pts[inside]
    pts = pts[curve.distance(pts) >= margin]
    if pts.shape[0] == 0:
        raise ValueError("no interior points satisfy the margin; check spacing/margin")
    return InteriorGrid(points=pts)
