"""Dense linear-algebra kernel: pseudoinverses, norms, conditioning.

Everything here assumes real matrices with full column rank.  The
pseudoinverse is computed from an SVD (orthogonal factorization), never
by forming and inverting the Gram matrix A^T A, which would square the
condition number.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_RANK_TOLERANCE = 1e-10


class RankDeficientError(Exception):
    """Smallest singular value fell below the rank tolerance."""


class ShapeMismatchError(Exception):
    """Operands have incompatible dimensions."""


def as_matrix(a) -> np.ndarray:
    """Validate and convert to a 2-d float array with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise ShapeMismatchError(f"expected a nonempty 2-d array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(v, dim: int | None = None) -> np.ndarray:
    """Validate and convert to a 1-d float array, optionally of fixed length."""
    x = np.asarray(v, dtype=float)
    if x.ndim != 1:
        raise ShapeMismatchError(f"expected a 1-d array, got shape {x.shape}")
    if dim is not None and x.shape[0] != dim:
        raise ShapeMismatchError(f"expected length {dim}, got {x.shape[0]}")
    if not np.isfinite(x).all():
        raise ValueError("vector entries must be finite")
    return x


@dataclass(frozen=True)
class PinvResult:
    """Pseudoinverse of a full-column-rank matrix plus rank diagnostics."""

    pinv: np.ndarray
    smallest_singular_value_estimate: float


def operator_norm(a) -> float:
    """Spectral norm (largest singular value)."""
    m = as_matrix(a)
    return float(np.linalg.svd(m, compute_uv=False)[0])


def pseudoinverse(a, rank_tolerance: float = DEFAULT_RANK_TOLERANCE) -> PinvResult:
    """Moore-Penrose pseudoinverse of an injective matrix (m >= n).

    Raises RankDeficientError when the smallest singular value is at or
    below ``rank_tolerance * ||A||``, i.e. when A cannot be certified to
    have full column rank in floating point.
    """
    m = as_matrix(a)
    rows, cols = m.shape
    if rows < cols:
        raise ShapeMismatchError(f"need rows >= cols, got {rows}x{cols}")
    if rank_tolerance <= 0:
        raise ValueError("rank_tolerance must be positive")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= rank_tolerance * s[0]:
        raise RankDeficientError(
            f"sigma_min={s[-1]:.3e} <= {rank_tolerance:.1e} * sigma_max={s[0]:.3e}"
        )
    pinv = (vt.T / s) @ u.T
    return PinvResult(pinv=pinv, smallest_singular_value_estimate=float(s[-1]))


def verify_penrose(a, p, tol: float) -> bool:
    """Check the four Moore-Penrose equations up to ``tol * max(1, ||A||)``.

    The residuals are ||APA - A||, ||PAP - P||, ||(AP)^T - AP|| and
    ||(PA)^T - PA|| in the spectral norm.
    """
    ma = as_matrix(a)
    mp = as_matrix(p)
    if mp.shape != ma.shape[::-1]:
        raise ShapeMismatchError(
            f"pseudoinverse candidate must be {ma.shape[::-1]}, got {mp.shape}"
        )
    ap = ma @ mp
    pa = mp @ ma
    residuals = (
        operator_norm(ap @ ma - ma),
        operator_norm(pa @ mp - mp),
        operator_norm(ap.T - ap),
        operator_norm(pa.T - pa),
    )
    scale = max(1.0, operator_norm(ma))
    return all(r <= tol * scale for r in residuals)


def condition_data(a) -> tuple[float, float]:
    """Return (||A^dag||, ||A^dag|| * ||A||) = (1/sigma_min, sigma_max/sigma_min)."""
    m = as_matrix(a)
    if m.shape[0] < m.shape[1]:
        raise ShapeMismatchError(f"need rows >= cols, got {m.shape[0]}x{m.shape[1]}")
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= DEFAULT_RANK_TOLERANCE * s[0]:
        raise RankDeficientError(f"sigma_min={s[-1]:.3e} relative to sigma_max={s[0]:.3e}")
    return float(1.0 / s[-1]), float(s[0] / s[-1])
