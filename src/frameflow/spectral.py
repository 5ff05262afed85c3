"""Dense eigendecomposition of symmetric matrices, in a canonical form.

LAPACK (``numpy.linalg.eigh``) does the work; this module fixes the
conventions fixtures and flows rely on:

* eigenvalues ascending,
* U stores eigenvectors as rows (row i pairs with eigenvalue i), so a
  spectral function f acts as U^T f(Lambda) U,
* each eigenvector's sign fixed so its first component of magnitude above
  1e-12 is positive,
* ``top_multiplicity`` counts the eigenvalues within 1e-9 of the largest,
* a frequency is a group of eigenvalues, clipped at 0, within 1e-9 of the
  group's first (its anchor); ``frequency_starts`` indexes the anchors.

Inside an eigenspace of multiplicity > 1 the basis is whatever LAPACK
returns; quantities built from whole eigenspaces (spectral functions,
projections) do not depend on it.  The bits of U depend on the numpy/BLAS
build and its thread count, not only on the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotSymmetricError,
)

__all__ = ["Spectrum", "eigh", "eigvalsh", "graph_fourier", "inverse_graph_fourier"]

SYMMETRY_TOL = 1e-12
TOP_TIE_TOL = 1e-9  # eigenvalues this close are one frequency, here and in analysis
TRANSPOSE_BLOCK = 256  # rows and columns per block of the in-place transpose


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition m = U^T diag(eigenvalues) U.

    Attributes
    ----------
    eigenvalues : (n,) ndarray, ascending.
    u : (n, n) ndarray whose *rows* are the orthonormal eigenvectors.
    rho_l : float, largest eigenvalue (the highest frequency for a Laplacian).
    top_multiplicity : int, count of eigenvalues within 1e-9 of rho_l.
    """

    eigenvalues: np.ndarray
    u: np.ndarray
    rho_l: float
    top_multiplicity: int

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @cached_property
    def frequency_starts(self) -> np.ndarray:
        """Index of each distinct frequency's first eigenvalue: an eigenvalue
        (clipped at 0) more than 1e-9 above the current frequency's first one
        starts the next frequency.  Found once per spectrum."""
        starts, anchor = [], None
        for i, lam in enumerate(np.maximum(self.eigenvalues, 0.0).tolist()):
            if anchor is None or lam - anchor > TOP_TIE_TOL:
                starts.append(i)
                anchor = lam
        return np.asarray(starts, dtype=np.intp)


def _fix_signs(u_rows: np.ndarray) -> np.ndarray:
    """Negate, in place, each row whose first entry above 1e-12 in magnitude is negative."""
    above = (u_rows > 1e-12) | (u_rows < -1e-12)  # |u| > 1e-12, in boolean temporaries
    rows = np.arange(u_rows.shape[0])
    first = np.argmax(above, axis=1)
    flip = above[rows, first] & (u_rows[rows, first] < 0.0)
    return np.negative(u_rows, out=u_rows, where=flip[:, None])


def _checked(m: np.ndarray) -> np.ndarray:
    """m as a float array, once it is square, finite and symmetric within
    1e-12; the asymmetry takes one n x n temporary."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NoConvergenceError("matrix has a NaN or infinite entry")
    if m.size:
        diff = np.subtract(m, m.T)
        asym = float(np.max(np.abs(diff, out=diff)))
        if asym > SYMMETRY_TOL:
            raise NotSymmetricError(f"asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")
    return m


def _transpose_in_place(a: np.ndarray) -> np.ndarray:
    """The square C-ordered ``a``, transposed in place by blocks: no second
    n x n array, and the bits of a copy."""
    n, size = a.shape[0], TRANSPOSE_BLOCK
    for i in range(0, n, size):
        a[i:i + size, i:i + size] = a[i:i + size, i:i + size].T.copy()
        for j in range(i + size, n, size):
            upper = a[i:i + size, j:j + size].copy()
            a[i:i + size, j:j + size] = a[j:j + size, i:i + size].T
            a[j:j + size, i:i + size] = upper.T
    return a


def eigh(m: np.ndarray) -> Spectrum:
    """Eigendecompose a symmetric matrix into a :class:`Spectrum`.

    Raises NotSymmetricError when max |m_ij - m_ji| exceeds 1e-12, and
    NoConvergenceError on a NaN or infinite entry or when LAPACK fails.
    LAPACK's eigenvector columns become the rows of U in place, so the
    solver's output is the one n x n array it leaves.
    """
    m = _checked(m)
    try:
        eigenvalues, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK eigh failed (n={m.shape[0]}): {exc}") from exc
    u = _fix_signs(_transpose_in_place(v))
    rho_l = float(eigenvalues[-1])
    top_multiplicity = int(np.sum(eigenvalues >= rho_l - TOP_TIE_TOL))
    eigenvalues.setflags(write=False)
    u.setflags(write=False)
    return Spectrum(eigenvalues=eigenvalues, u=u, rho_l=rho_l, top_multiplicity=top_multiplicity)


def eigvalsh(m: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues of a symmetric matrix, with :func:`eigh`'s
    checks and errors, and no eigenvectors."""
    m = _checked(m)
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK eigvalsh failed (n={m.shape[0]}): {exc}") from exc


def graph_fourier(s: Spectrum, signal: np.ndarray) -> np.ndarray:
    """Forward transform U @ signal: coefficient (i, k) = <u_i, signal[:, k]>."""
    signal = np.asarray(signal, dtype=float)
    if signal.shape[0] != s.n:
        raise DimensionMismatchError(
            f"signal has {signal.shape[0]} rows, spectrum expects {s.n}"
        )
    return s.u @ signal


def inverse_graph_fourier(s: Spectrum, coefficients: np.ndarray) -> np.ndarray:
    """Inverse transform U^T @ coefficients; round-trips with graph_fourier."""
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape[0] != s.n:
        raise DimensionMismatchError(
            f"coefficients have {coefficients.shape[0]} rows, spectrum expects {s.n}"
        )
    return s.u.T @ coefficients
