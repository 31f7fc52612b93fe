"""Dense linear-algebra kernel: pseudoinverses, norms, conditioning.

Everything here assumes real matrices with full column rank, certified by
one rank rule with the fixed relative tolerance DEFAULT_RANK_TOLERANCE.
``pseudoinverse`` returns the matrix, computed from an SVD (orthogonal
factorization), never by forming and inverting the Gram matrix A^T A,
which would square the condition number.
"""
from __future__ import annotations

import numpy as np

__all__ = ["DEFAULT_RANK_TOLERANCE", "RankDeficientError", "ShapeMismatchError", "condition_data",
           "operator_norm", "pseudoinverse", "verify_penrose"]

DEFAULT_RANK_TOLERANCE = 1e-10


class RankDeficientError(Exception):
    """Smallest singular value fell below the rank tolerance."""


class ShapeMismatchError(Exception):
    """Operands have incompatible dimensions."""


def _require_full_rank(s, error: type[Exception] = RankDeficientError):
    """The one numerical-rank rule: raise ``error`` unless the descending singular
    values ``s`` have sigma_min > DEFAULT_RANK_TOLERANCE * sigma_max > 0."""
    if s[0] == 0.0 or s[-1] <= DEFAULT_RANK_TOLERANCE * s[0]:
        raise error(f"sigma_min={s[-1]:.3e} <= {DEFAULT_RANK_TOLERANCE:.1e} * sigma_max={s[0]:.3e}")


def _as_matrix(a) -> np.ndarray:
    """Validate and convert to a 2-d float array with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise ShapeMismatchError(f"expected a nonempty 2-d array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _as_vector(v, dim: int | None = None) -> np.ndarray:
    """Validate and convert to a 1-d float array, optionally of fixed length."""
    x = np.asarray(v, dtype=float)
    if x.ndim != 1:
        raise ShapeMismatchError(f"expected a 1-d array, got shape {x.shape}")
    if dim is not None and x.shape[0] != dim:
        raise ShapeMismatchError(f"expected length {dim}, got {x.shape[0]}")
    if not np.isfinite(x).all():
        raise ValueError("vector entries must be finite")
    return x


def operator_norm(a) -> float:
    """Spectral norm (largest singular value)."""
    m = _as_matrix(a)
    return float(np.linalg.svd(m, compute_uv=False)[0])


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse of an injective matrix (m >= n).

    Raises RankDeficientError when the smallest singular value is at or
    below ``DEFAULT_RANK_TOLERANCE * ||A||``, i.e. when A cannot be certified
    to have full column rank in floating point.
    """
    m = _as_matrix(a)
    rows, cols = m.shape
    if rows < cols:
        raise ShapeMismatchError(f"need rows >= cols, got {rows}x{cols}")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    _require_full_rank(s)
    return (vt.T / s) @ u.T


def verify_penrose(a, p, tol: float) -> bool:
    """Check the four Moore-Penrose equations up to ``tol * max(1, ||A||)``.

    The residuals are ||APA - A||, ||PAP - P||, ||(AP)^T - AP|| and
    ||(PA)^T - PA|| in the spectral norm.
    """
    ma = _as_matrix(a)
    mp = _as_matrix(p)
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
    m = _as_matrix(a)
    if m.shape[0] < m.shape[1]:
        raise ShapeMismatchError(f"need rows >= cols, got {m.shape[0]}x{m.shape[1]}")
    s = np.linalg.svd(m, compute_uv=False)
    _require_full_rank(s)
    return float(1.0 / s[-1]), float(s[0] / s[-1])
