import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evokernel import geometry as geo

CURVES = {
    "disk": geo.make_curve("disk", radius=1.0),
    "square": geo.make_curve("square"),
    "petal": geo.make_curve("petal"),
}


def test_pinned_points():
    petal = CURVES["petal"]
    assert petal.point(0.0) == pytest.approx([0.6, 0.0])
    # sin(6 * pi/2) = sin(3 pi) = 0, so the radius is the base value
    assert petal.point(np.pi / 2) == pytest.approx([0.0, 0.6], abs=1e-15)
    disk = CURVES["disk"]
    assert disk.point(np.pi) == pytest.approx([-1.0, 0.0], abs=1e-15)


@pytest.mark.parametrize("kind", list(CURVES))
def test_curve_invariants(kind):
    curve = CURVES[kind]
    rng = np.random.default_rng(3)
    t = rng.uniform(0, 2 * np.pi, size=1000)
    if kind == "square":  # keep clear of corner parameter values
        t = t[np.min(np.abs(t[:, None] - np.array([0, .5, 1, 1.5, 2]) * np.pi),
                     axis=1) > 1e-6]
    assert np.max(np.abs(curve.point(t + 2 * np.pi) - curve.point(t))) < 1e-12
    n = curve.normal(t)
    assert np.max(np.abs(np.hypot(n[:, 0], n[:, 1]) - 1.0)) < 1e-12
    d = curve.derivative(t)
    assert np.max(np.abs(n[:, 0] * d[:, 0] + n[:, 1] * d[:, 1])) < 1e-12


def _signed_area(grid):
    """1/2 * contour integral of (x dy - y dx); positive for CCW curves."""
    p = grid.points
    d = grid.curve.derivative(grid.t)
    return 0.5 * grid.weight * float(np.sum(p[:, 0] * d[:, 1] - p[:, 1] * d[:, 0]))


@pytest.mark.parametrize("kind,expected", [("disk", np.pi), ("square", 1.0)])
def test_signed_area(kind, expected):
    grid = geo.sample_quadrature(CURVES[kind], 256)
    assert _signed_area(grid) == pytest.approx(expected, abs=1e-10)


def test_petal_positive_area():
    grid = geo.sample_quadrature(CURVES["petal"], 256)
    # CCW orientation
    assert _signed_area(grid) > 0


def test_quadrature_weights_and_length():
    grid = geo.sample_quadrature(CURVES["disk"], 4 * 64)
    assert np.sum(grid.weights) == pytest.approx(2 * np.pi, rel=1e-14)
    assert grid.length_estimate() == pytest.approx(2 * np.pi, rel=1e-12)
    sq = geo.sample_quadrature(CURVES["square"], 512)
    # midpoint rule is exact on straight edges
    assert sq.length_estimate() == pytest.approx(4.0, abs=1e-12)


def test_petal_length_self_convergence():
    l64 = geo.sample_quadrature(CURVES["petal"], 64).length_estimate()
    l128 = geo.sample_quadrature(CURVES["petal"], 128).length_estimate()
    l256 = geo.sample_quadrature(CURVES["petal"], 256).length_estimate()
    assert abs(l128 - l256) < 1e-10
    assert abs(l64 - l128) < 1e-6


def test_smooth_quadrature_geometric_convergence():
    # spectral accuracy of the periodic trapezoid rule on a smooth integrand
    petal = CURVES["petal"]

    def integral(n):
        g = geo.sample_quadrature(petal, n)
        f = np.exp(np.sin(g.t)) * g.speeds
        return g.weight * np.sum(f)

    ref = integral(2048)
    errs = [abs(integral(n) - ref) for n in (64, 128, 256, 512)]
    assert errs[-1] < 1e-10
    assert errs[1] < errs[0] * 0.1 or errs[0] < 1e-12


def test_square_nodes_avoid_corners():
    for n in (8, 64, 256, 512):
        grid = geo.sample_quadrature(CURVES["square"], n)
        frac = grid.t / (np.pi / 2)
        assert np.min(np.abs(frac - np.round(frac))) > 1e-3


def test_quadrature_validation():
    with pytest.raises(ValueError):
        geo.sample_quadrature(CURVES["disk"], 4)
    with pytest.raises(ValueError):
        geo.sample_quadrature(CURVES["square"], 30)
    with pytest.raises(ValueError):
        geo.make_curve("disk", radius=-1.0)
    with pytest.raises(ValueError):
        geo.make_curve("blob")
    with pytest.raises(TypeError):        # the square is the unit square
        geo.make_curve("square", side=2.0)


def test_quadrature_grid_hash_and_eq_follow_cache_key():
    grids = [geo.sample_quadrature(geo.make_curve(kind, **params), n)
             for kind, params, n in (("disk", {"radius": 1.0}, 32), ("disk", {"radius": 1}, 32),
                                     ("disk", {"radius": 2.0}, 32), ("disk", {"radius": 1.0}, 64),
                                     ("square", {}, 32), ("petal", {"lobes": 5}, 32))]
    for a in grids:
        for b in grids:
            assert (a == b) == (a.cache_key == b.cache_key)
            if a == b:
                assert hash(a) == hash(b)
    assert grids[0] == grids[1] and grids[0] is not grids[1]
    assert len(set(grids)) == 5
    assert grids[0] != grids[0].curve


def test_square_lattice_41():
    grid = geo.square_lattice(41)
    assert grid.m == 1681
    xs = grid.points[:41, 1]
    assert np.allclose(np.diff(xs), 1 / 40, rtol=0, atol=1e-15)
    assert np.array_equal(grid.points[::41, 0], xs)
    sub = geo.square_lattice(16, lo=0.05, hi=0.95)
    assert sub.points[0] == pytest.approx([0.05, 0.05])


def test_petal_interior_margin():
    petal = CURVES["petal"]
    grid = geo.petal_lattice(petal, spacing=0.02, margin=0.01)
    assert grid.m > 1000
    assert np.all(petal.distance(grid.points) >= 0.01 - 1e-9)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 2 * np.pi))
def test_petal_curvature_matches_difference_quotient(t):
    petal = CURVES["petal"]
    h = 1e-6
    d1 = petal.derivative(np.array([t]))[0]
    d2 = (petal.derivative(np.array([t + h]))[0]
          - petal.derivative(np.array([t - h]))[0]) / (2 * h)
    speed = np.hypot(*d1)
    kappa_fd = (d1[0] * d2[1] - d1[1] * d2[0]) / speed**3
    assert petal.curvature(np.array([t]))[0] == pytest.approx(kappa_fd, rel=1e-5, abs=1e-5)

