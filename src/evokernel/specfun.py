"""Modified Bessel functions K0, K1 and Kelvin functions ker, kei (orders 0, 1).

Thin wrappers over ``scipy.special`` (Amos' algorithm, ACM TOMS 644, 1986).
The Kelvin functions come from the complex Bessel function,

    ker_n(x) + i kei_n(x) = exp(-i n pi/2) K_n(x exp(i pi/4)),

rather than from ``scipy.special.ker/kei/kerp/keip``, which are accurate only
to 1e-8 .. 1e-10.  Against a 40-digit mpmath oracle on [1e-4, 40] the
relative error is below 2e-14 for K0, K1, ker_n, kei_n and ker_0'; kei_0'
cancels near 0 (kei_1 - ker_1) and is accurate to 1e-12 absolute there.

Limits as x -> 0+: K0, K1, ker0, ker1, kei1 diverge; kei0(0+) = -pi/4.
"""

import numpy as np
import scipy.special

__all__ = ["bessel_k", "kelvin", "k0", "k1", "ker", "kei", "dker0", "dkei0"]

_ROT = np.exp(0.25j * np.pi)


def bessel_k(order, x):
    """Modified Bessel function K_order(x), order 0 or 1, x > 0; scalar or array."""
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {order!r}")
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0):
        raise ValueError("bessel_k requires x > 0")
    out = scipy.special.k0(x) if order == 0 else scipy.special.k1(x)
    return out[()]


def _kelvin_complex(order, x):
    """ker_n(x) + i kei_n(x) for x > 0."""
    kz = scipy.special.kv(order, x * _ROT)
    return -1j * kz if order == 1 else kz


def kelvin(order, part, x):
    """Kelvin function ker_n(x) or kei_n(x), n in {0, 1}, x > 0 (kei_0(0) = -pi/4)."""
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {order!r}")
    if part not in ("ker", "kei"):
        raise ValueError(f"part must be 'ker' or 'kei', got {part!r}")
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0.0):
        raise ValueError("kelvin requires x >= 0")
    at_zero = x == 0.0
    if np.any(at_zero) and not (order == 0 and part == "kei"):
        raise ValueError("only kei_0 is finite at x = 0")
    kz = _kelvin_complex(order, np.where(at_zero, 1.0, x))
    out = np.real(kz) if part == "ker" else np.imag(kz)
    return np.where(at_zero, -0.25 * np.pi, out)[()]


def k0(x):
    return bessel_k(0, x)


def k1(x):
    return bessel_k(1, x)


def ker(order, x):
    return kelvin(order, "ker", x)


def kei(order, x):
    return kelvin(order, "kei", x)


def dker0(x):
    """d/dx ker_0(x) = (ker_1(x) + kei_1(x)) / sqrt(2)."""
    kz = _kelvin_complex(1, np.asarray(x, dtype=np.float64))
    return ((np.real(kz) + np.imag(kz)) / np.sqrt(2.0))[()]


def dkei0(x):
    """d/dx kei_0(x) = (kei_1(x) - ker_1(x)) / sqrt(2)."""
    kz = _kelvin_complex(1, np.asarray(x, dtype=np.float64))
    return ((np.imag(kz) - np.real(kz)) / np.sqrt(2.0))[()]
