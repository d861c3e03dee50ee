"""Special functions against the arbitrary-precision mpmath oracle."""

import mpmath as mp
import numpy as np
import pytest

from evokernel import specfun as sf

mp.mp.dps = 40

LOG_GRID = np.logspace(-4, np.log10(40.0), 81)


def oracle_grid(fn):
    return np.array([float(fn(mp.mpf(float(x)))) for x in LOG_GRID])


def test_k0_k1_pinned_values():
    # frozen from the 40-digit ascending series oracle
    assert sf.k0(1.0) == pytest.approx(0.42102443824070834, rel=1e-14)
    assert sf.k1(1.0) == pytest.approx(0.60190723019723458, rel=1e-14)


@pytest.mark.parametrize("order", [0, 1])
def test_bessel_k_log_grid(order):
    vals = sf.bessel_k(order, LOG_GRID)
    refs = oracle_grid(lambda x: mp.besselk(order, x))
    rel = np.abs(vals - refs) / np.abs(refs)
    assert rel.max() < 1e-10


# part -> (derivative function, tolerance, error-scale floor); kei0' cancels
# (kei1 - ker1) near 0, so it is gated on |err| / max(|ref|, 1)
DERIVATIVES = {"dker": (sf.dker0, 1e-12, 1e-30), "dkei": (sf.dkei0, 1e-11, 1.0)}


@pytest.mark.parametrize("order,part,oracle", [
    (0, "ker", lambda x: mp.ker(0, x)),
    (0, "kei", lambda x: mp.kei(0, x)),
    (1, "ker", lambda x: mp.ker(1, x)),
    (1, "kei", lambda x: mp.kei(1, x)),
    (0, "dker", lambda x: mp.diff(lambda t: mp.ker(0, t), x)),
    (0, "dkei", lambda x: mp.diff(lambda t: mp.kei(0, t), x)),
])
def test_kelvin_log_grid(order, part, oracle):
    fn, tol, floor = DERIVATIVES.get(part, (None, 1e-10, 1e-30))
    vals = fn(LOG_GRID) if fn else sf.kelvin(order, part, LOG_GRID)
    refs = oracle_grid(oracle)
    rel = np.abs(vals - refs) / np.maximum(np.abs(refs), floor)
    assert rel.max() < tol


def test_small_x_limits():
    # K0(x) ~ -ln(x/2) - gamma as x -> 0+
    x = 1e-8
    gamma = 0.5772156649015329
    assert sf.k0(x) + np.log(x / 2) + gamma == pytest.approx(0.0, abs=1e-12)
    # kei0 extends continuously to -pi/4 at zero
    assert sf.kelvin(0, "kei", 0.0) == pytest.approx(-np.pi / 4, rel=1e-14)
    assert sf.kei(0, 1e-9) == pytest.approx(-np.pi / 4, rel=1e-6)


def test_defining_identity_modulus():
    # ker0^2 + kei0^2 = |K0(x e^{i pi/4})|^2
    rng = np.random.default_rng(5)
    xs = rng.uniform(1e-3, 10.0, size=100)
    lhs = sf.ker(0, xs) ** 2 + sf.kei(0, xs) ** 2
    refs = np.array([abs(complex(mp.besselk(0, mp.mpf(float(x)) *
                                            mp.exp(1j * mp.pi / 4)))) ** 2
                     for x in xs])
    assert np.max(np.abs(lhs - refs) / refs) < 1e-10


def test_kelvin_derivative_identities():
    # dker0/dx and dkei0/dx vs centered differences of the order-0 functions
    xs = np.array([0.3, 0.9, 1.7, 3.2, 6.5])
    h = 1e-5
    fd_ker = (sf.ker(0, xs + h) - sf.ker(0, xs - h)) / (2 * h)
    fd_kei = (sf.kei(0, xs + h) - sf.kei(0, xs - h)) / (2 * h)
    assert np.max(np.abs(fd_ker - sf.dker0(xs))) < 1e-6
    assert np.max(np.abs(fd_kei - sf.dkei0(xs))) < 1e-6
    both = sf.dkelvin0(LOG_GRID)
    assert both.tobytes() == (sf.dker0(LOG_GRID) + 1j * sf.dkei0(LOG_GRID)).tobytes()


def test_monotone_decay():
    xs = np.linspace(0.05, 20.0, 400)
    for fn in (sf.k0, sf.k1):
        v = fn(xs)
        assert np.all(np.diff(v) < 0)


def test_domain_errors():
    with pytest.raises(ValueError):
        sf.k0(0.0)
    with pytest.raises(ValueError):
        sf.k1(-1.0)
    with pytest.raises(ValueError):
        sf.kelvin(0, "ker", 0.0)
    with pytest.raises(ValueError):
        sf.bessel_k(2, 1.0)
    with pytest.raises(ValueError):
        sf.kelvin(0, "imag", 1.0)
