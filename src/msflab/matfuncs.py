"""Dense matrix exponentials, logarithms and eigendecompositions.

Logarithms are principal, except for near-defective matrices with a
conjugate eigenvalue pair straddling the negative real axis (see mat_log).

Sized for the small (2x2 to ~6x6) propagators this package manipulates.
The primary path diagonalizes in complex arithmetic; matrices whose
eigenvector basis is ill-conditioned fall back to scipy's scaling-and-
squaring exponential and inverse-scaling-and-squaring logarithm.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

# Eigenvector-basis condition number beyond which the Pade fallbacks run.
EIG_COND_LIMIT = 1e6
# Relative smallest-singular-value threshold below which no logarithm exists.
SINGULARITY_RTOL = 1e-12


class NonInvertibleMatrixError(ValueError):
    """Raised for log of a numerically singular matrix.

    A singular propagator means the flow map lost rank (an order-reducing
    event such as a perfectly plastic stop), and no matrix logarithm
    exists for it.
    """


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues, right eigenvectors (columns) and basis conditioning."""

    values: np.ndarray
    vectors: np.ndarray
    vector_condition: float


def _as_square(m) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    if not np.issubdtype(a.dtype, np.complexfloating):
        a = a.astype(float)
    return a


def solve_eigen(m) -> EigenDecomposition:
    """Eigendecomposition with an explicit basis-conditioning figure.

    vector_condition is the 2-norm condition number of the eigenvector
    matrix; near-defective inputs produce a large value, which mat_exp and
    mat_log use to switch to their fallback algorithms.
    """
    a = _as_square(m)
    values, vectors = np.linalg.eig(a)
    try:
        cond = float(np.linalg.cond(vectors))
    except np.linalg.LinAlgError:
        cond = np.inf
    if not np.isfinite(cond):
        cond = np.inf
    return EigenDecomposition(values=values, vectors=vectors, vector_condition=cond)


def mat_exp(m) -> np.ndarray:
    """Matrix exponential; real input yields real output."""
    a = _as_square(m)
    dec = solve_eigen(a)
    if dec.vector_condition < EIG_COND_LIMIT:
        r = (dec.vectors * np.exp(dec.values)) @ np.linalg.inv(dec.vectors)
    else:
        r = scipy.linalg.expm(a)
    if not np.issubdtype(a.dtype, np.complexfloating):
        return np.real(r) if np.iscomplexobj(r) else r
    return r


def mat_log(m) -> np.ndarray:
    """Matrix logarithm, always returned complex; principal but for one case.

    Eigenvalues on the negative real axis pick up +i*pi, so a real matrix
    can have a genuinely complex logarithm.  Real matrices whose spectrum
    is positive or comes in conjugate pairs reconstruct to a real matrix
    up to rounding; the imaginary part is kept so callers can audit it.
    Raises NonInvertibleMatrixError when the smallest singular value drops
    below SINGULARITY_RTOL relative to the largest.

    Near-defective matrices whose eigenvalues lie on or straddle the
    negative real axis get i*pi*I + log(-m).  That is the principal
    logarithm when those eigenvalues are real.  For a conjugate pair
    straddling the axis it is not: both eigenvalues land on the +i*pi
    side, because the principal logarithm then has entries of order
    1/(eigenvalue gap) and no exponential maps it back to m.
    """
    a = _as_square(m)
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] < SINGULARITY_RTOL * sv[0] or sv[0] == 0.0:
        raise NonInvertibleMatrixError(
            f"matrix is numerically singular (smallest/largest singular value "
            f"= {sv[-1]:.3e}/{sv[0]:.3e}); the flow map lost rank, so no "
            f"logarithm exists"
        )
    dec = solve_eigen(a)
    if dec.vector_condition < EIG_COND_LIMIT:
        r = (dec.vectors * np.log(dec.values.astype(complex))) @ np.linalg.inv(dec.vectors)
    else:
        values = dec.values
        flip = np.all(values.real < 0.0) and np.all(
            np.abs(values.imag) < np.abs(values) / EIG_COND_LIMIT
        )
        with warnings.catch_warnings():
            # Without the deprecated disp=False logm warns when its own error
            # estimate is large; the fallback stays as silent as it was.
            warnings.filterwarnings(
                "ignore", message="logm result may be inaccurate", category=RuntimeWarning
            )
            r = scipy.linalg.logm(-a if flip else a)
        if flip:
            r = r + 1j * np.pi * np.eye(a.shape[0])
    return np.asarray(r, dtype=complex)
