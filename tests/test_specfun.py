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


# the module docstring's bounds: relative error below 2e-14, except kei0',
# which cancels (kei1 - ker1) near 0 and is gated on |err| / max(|ref|, 1) at 1e-12
@pytest.mark.parametrize("fn, oracle, tol, floor", [
    (sf.k0, lambda x: mp.besselk(0, x), 2e-14, 1e-30),
    (sf.k1, lambda x: mp.besselk(1, x), 2e-14, 1e-30),
    (lambda x: sf.ker(0, x), lambda x: mp.ker(0, x), 2e-14, 1e-30),
    (lambda x: sf.kei(0, x), lambda x: mp.kei(0, x), 2e-14, 1e-30),
    (lambda x: sf.ker(1, x), lambda x: mp.ker(1, x), 2e-14, 1e-30),
    (lambda x: sf.kei(1, x), lambda x: mp.kei(1, x), 2e-14, 1e-30),
    (sf.dker0, lambda x: mp.diff(lambda t: mp.ker(0, t), x), 2e-14, 1e-30),
    (sf.dkei0, lambda x: mp.diff(lambda t: mp.kei(0, t), x), 1e-12, 1.0),
], ids=["k0", "k1", "ker0", "kei0", "ker1", "kei1", "dker0", "dkei0"])
def test_log_grid_against_oracle(fn, oracle, tol, floor):
    refs = oracle_grid(oracle)
    rel = np.abs(fn(LOG_GRID) - refs) / np.maximum(np.abs(refs), floor)
    assert rel.max() < tol


def test_small_x_limits():
    # K0(x) ~ -ln(x/2) - gamma as x -> 0+
    x = 1e-8
    gamma = 0.5772156649015329
    assert sf.k0(x) + np.log(x / 2) + gamma == pytest.approx(0.0, abs=1e-12)
    # kei0 extends continuously to -pi/4 at zero
    assert sf.kei(0, 0.0) == pytest.approx(-np.pi / 4, rel=1e-14)
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
        sf.ker(0, 0.0)
    with pytest.raises(ValueError):
        sf.kei(1, 0.0)
    with pytest.raises(ValueError):
        sf.kei(0, -1.0)
    with pytest.raises(ValueError, match="require x > 0"):
        sf.dker0(-1.0)
    with pytest.raises(ValueError, match="require x > 0"):
        sf.dkei0(0.0)
    with pytest.raises(ValueError, match="require x > 0"):
        sf.dkelvin0([1.0, 0.0])
    with pytest.raises(ValueError, match="order must be 0 or 1"):
        sf.ker(2, 1.0)
    with pytest.raises(ValueError, match="order must be 0 or 1"):
        sf.kei(2, 1.0)

