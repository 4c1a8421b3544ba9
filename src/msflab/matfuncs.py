"""Closed-form exponential and logarithm of 2x2 matrices.

Every propagator, generator and step power in this package is 2x2, so both
functions work in scalar arithmetic from the trace/traceless split
M = mu*I + N, where mu is half the trace and N*N = s^2*I (Cayley-Hamilton;
the eigenvalues are mu +- s):

    exp(t*M) = e^(t*mu) * (cosh(t*s)*I + sinh(t*s)/s * N),
    log(M)   = (log l1 + log l2)/2 * I + (log l1 - log l2)/(l1 - l2) * N,

with sinh(t*s)/s -> t as s -> 0 and the divided difference taken through
atanh when the eigenvalues are close (Higham, Functions of Matrices, 2008,
ch. 11).  Both stay exact for defective matrices; there is no
eigendecomposition and no fallback.

Logarithms are principal, except when both eigenvalues lie within a
relative AXIS_RTOL of the negative real axis (see mat_log).
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

import numpy as np

# Relative smallest-singular-value threshold below which no logarithm exists.
SINGULARITY_RTOL = 1e-12
# |Im l| <= AXIS_RTOL*|l| on both eigenvalues (with Re l < 0) selects the
# i*pi*I + log(-M) branch of mat_log.
AXIS_RTOL = 1e-6


class NonInvertibleMatrixError(ValueError):
    """Raised for log of a numerically singular matrix.

    A singular propagator means the flow map lost rank (an order-reducing
    event such as a perfectly plastic stop), and no matrix logarithm
    exists for it.
    """


def _entries(m) -> tuple[list, bool]:
    """The four entries of a finite 2x2 matrix as Python scalars, and whether complex."""
    a = np.asarray(m)
    if a.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {a.shape}")
    is_complex = np.iscomplexobj(a)
    entries = a.astype(complex if is_complex else float).ravel().tolist()
    if not all(map(cmath.isfinite, entries)):
        raise ValueError("matrix contains non-finite entries")
    return entries, is_complex


def scalar_exp_flow(entries, is_complex: bool) -> Callable[[float], tuple]:
    """t -> the row-major entries of exp(t*m), for m's finite row-major entries;
    real entries give real ones.  The half trace, the traceless part and s are
    computed once here; each call then costs a few scalar operations."""
    a, b, c, d = entries
    mu = 0.5 * (a + d)
    n0 = 0.5 * (a - d)
    s2 = n0 * n0 + b * c
    # exp(t*m) = e^(t*mu) * (base(t*s)*I + sinh(t*s)/s * [[p, b], [c, q]]); in
    # general base = cosh and (p, q) = (n0, -n0), the traceless part itself.
    if is_complex:
        s, exp, sinh, base = cmath.sqrt(s2), cmath.exp, cmath.sinh, cmath.cosh
        p, q = n0, -n0
    elif s2 < 0.0:
        # s = i*w: cosh(i*w*t) = cos(w*t) and sinh(i*w*t)/(i*w) = sin(w*t)/w.
        s, exp, sinh, base = math.sqrt(-s2), math.exp, math.sin, math.cos
        p, q = n0, -n0
    else:
        # cosh(x) + n0/s*sinh(x) = e^-x + (s + n0)/s*sinh(x), and s - |n0| =
        # b*c/(s + |n0|) has no cancellation: with b*c >= 0 each diagonal
        # entry is a sum of nonnegative terms, however large s*t is.
        s, exp, sinh = math.sqrt(s2), math.exp, math.sinh
        base = lambda x: math.exp(-x)
        big = s + abs(n0)
        small = b * c / big if big else 0.0
        p, q = (big, small) if n0 >= 0.0 else (small, big)

    def at(t: float) -> np.ndarray:
        e = exp(t * mu)
        e0 = e * base(t * s)
        sh = e * (sinh(t * s) / s if s else t)
        return e0 + sh * p, sh * b, sh * c, e0 + sh * q

    return at


def exp_flow(m) -> Callable[[float], np.ndarray]:
    """The one-parameter group t -> exp(t*m) of a 2x2 matrix m; real m gives real matrices."""
    at = scalar_exp_flow(*_entries(m))
    return lambda t: np.array(at(t)).reshape(2, 2)


def mat_exp(m) -> np.ndarray:
    """Matrix exponential of a 2x2 matrix; real input yields real output."""
    return exp_flow(m)(1.0)


def _pow2(x, k: int):
    """x * 2^k in two exact power-of-two factors, neither of which overflows."""
    return x * 2.0 ** (k // 2) * 2.0 ** (k - k // 2)


def _log_coefficients(mu, s, l1, l2) -> tuple[complex, complex]:
    """(g0, g1) with log(mu*I + N) = g0*I + g1*N, for eigenvalues l1,2 = mu +- s."""
    log1, log2 = cmath.log(l1), cmath.log(l2)
    g0 = 0.5 * (log1 + log2)
    if s == 0.0:
        return g0, 1.0 / mu
    if abs(s) < 0.5 * abs(mu):
        # log l1 - log l2 = 2*atanh(s/mu) + 2*pi*i*u; the atanh form has no
        # cancellation, and u (the unwinding number) keeps the principal branch.
        w = cmath.atanh(s / mu)
        u = round((log1 - log2 - 2.0 * w).imag / (2.0 * math.pi))
        return g0, (w + 1j * math.pi * u) / s
    return g0, (log1 - log2) / (2.0 * s)


def mat_log(m) -> np.ndarray:
    """Logarithm of a 2x2 matrix, always complex; principal but for one case.

    Eigenvalues on the negative real axis pick up +i*pi, so a real matrix
    can have a genuinely complex logarithm.  Real matrices whose spectrum
    is positive or comes in conjugate pairs reconstruct to a real matrix
    up to rounding; the imaginary part is kept so callers can audit it.
    Raises NonInvertibleMatrixError when the smallest singular value drops
    below SINGULARITY_RTOL relative to the largest.  See scalar_log.
    """
    return np.array(scalar_log(*_entries(m)), dtype=complex).reshape(2, 2)


def scalar_log(entries, is_complex: bool) -> tuple[complex, ...]:
    """mat_log's row-major entries, as Python complex, for m's finite row-major entries.

    When both eigenvalues have negative real part and |Im l| <= AXIS_RTOL*|l|
    (1e-6), the result is i*pi*I + log(-m), which puts both eigenvalues on
    the +i*pi side.  For real eigenvalues that is the principal logarithm.
    For a conjugate pair straddling the axis it is not: there the principal
    logarithm has entries of order |m - mu*I|/|Im l|, which no exponential
    maps back to m when the pair is near-defective.

    The eigenvalues are taken stably, l1 = mu + s with the sign of s that
    avoids cancellation and l2 = det/l1.  Real eigenvalues of a real
    matrix get a +0.0 imaginary part, so a negative one takes +i*pi.
    Entries beyond [2^-500, 2^500] in magnitude, whose squares would over- or
    underflow, are scaled exactly by 2^-k and k*log(2) added to the identity part.
    """
    big = max(map(abs, entries))
    k = 0 if 2.0 ** -500 <= big <= 2.0 ** 500 else math.frexp(big)[1]
    a, b, c, d = (_pow2(z, -k) for z in entries) if k else entries
    det = a * d - b * c
    # Singular values: sv_max^2 + sv_min^2 = |m|_F^2 and sv_max*sv_min = |det|.
    fro2 = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
    gap2 = max((fro2 - 2.0 * abs(det)) * (fro2 + 2.0 * abs(det)), 0.0)
    sv_max = math.sqrt(0.5 * (fro2 + math.sqrt(gap2)))
    sv_min = abs(det) / sv_max if sv_max else 0.0
    if sv_max == 0.0 or sv_min < SINGULARITY_RTOL * sv_max:
        raise NonInvertibleMatrixError(
            f"matrix is numerically singular (smallest/largest singular value "
            f"= {_pow2(sv_min, k):.3e}/{_pow2(sv_max, k):.3e}); the flow map lost "
            f"rank, so no logarithm exists"
        )
    mu = 0.5 * (a + d)
    n0 = 0.5 * (a - d)
    s2 = n0 * n0 + b * c
    if not is_complex and s2 >= 0.0:
        s = math.copysign(math.sqrt(s2), mu)
        l1 = mu + s
        l1, l2 = complex(l1, 0.0), complex(det / l1, 0.0)
    elif not is_complex:
        s = 1j * math.sqrt(-s2)
        l1 = mu + s
        l2 = l1.conjugate()
    else:
        s = cmath.sqrt(s2)
        if (mu.conjugate() * s).real < 0.0:
            s = -s
        l1 = mu + s
        l2 = det / l1
    if all(z.real < 0.0 and abs(z.imag) <= AXIS_RTOL * abs(z) for z in (l1, l2)):
        # log(-m) = g0*I + g1*(-N) for -m = (-mu)*I + (-N).
        g0, g1 = _log_coefficients(-mu, -s, -l1, -l2)
        g0, g1 = g0 + 1j * math.pi, -g1
    else:
        g0, g1 = _log_coefficients(mu, s, l1, l2)
    if k:
        g0 += k * math.log(2.0)
    # complex() casts a real entry (b and c where g1 = 1/mu) as numpy does.
    return tuple(map(complex, (g0 + g1 * n0, g1 * b, g1 * c, g0 - g1 * n0)))
