"""Fitting linear laws: correlation matrix, symmetric eigensolve by
LAPACK, and the smallest-eigenpair selection that defines a law.

The law of a class is the unit vector w minimizing the mean squared
residual of w against the class's embedded windows; by the Lagrange
condition this is the eigenvector of C = Y^T Y / K with the smallest
eigenvalue, and that eigenvalue equals the training residual variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddedMatrix, embed_class
from .types import Beat, ConvergenceError, Corpus, Label, LinearLaw

# Tolerances for double precision at widths <= 32.
EIGENPAIR_RTOL = 1e-9
VARIANCE_IDENTITY_RTOL = 1e-10
DEGENERACY_RTOL = 1e-9


class DegenerateLawError(ValueError):
    pass


@dataclass
class ScanEntry:
    width: int
    lambda_train: float
    variance_validation: float
    gap: float
    feature_count: int


@dataclass
class LawScanReport:
    entries: list[ScanEntry]

    def to_csv(self) -> str:
        lines = ["l,lambda_train,var_val,gap,feature_count"]
        for e in self.entries:
            lines.append(
                f"{e.width},{e.lambda_train:.17g},{e.variance_validation:.17g},"
                f"{e.gap:.17g},{e.feature_count}"
            )
        return "\n".join(lines) + "\n"


def correlation(Y: EmbeddedMatrix) -> np.ndarray:
    """C = Y^T Y / K. Upper triangle is mirrored so symmetry is exact."""
    if Y.rows < 1:
        raise ValueError("embedding has no rows")
    M = Y.data.T @ Y.data / Y.rows
    upper = np.triu(M)
    return upper + upper.T - np.diag(np.diag(M))


def jacobi_eigensystem(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigensystem of a symmetric matrix by LAPACK (``numpy.linalg.eigh``).

    Returns (eigenvalues ascending, eigenvectors as columns). Only the
    lower triangle is read, so the input must already be symmetric.
    """
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return np.linalg.eigh(A)


def _fix_sign(w: np.ndarray) -> np.ndarray:
    """First nonzero component made positive (reproducible orientation)."""
    for v in w:
        if v != 0.0:
            return -w if v < 0.0 else w
    return w


def fit_law(
    beats: np.ndarray | list[Beat],
    width: int,
    class_tag: str,
    allow_degenerate: bool = False,
) -> LinearLaw:
    """Fit the linear law of a class, given as an (N, L) sample array or
    a list of beats: embed, correlate, take the smallest eigenpair, and
    verify its residual ``||Cw - lam w||`` and the variance identity."""
    Y = embed_class(beats, width)
    C = correlation(Y)
    evals, evecs = jacobi_eigensystem(C)
    lam = float(evals[0])
    scale = max(float(np.trace(C)), np.finfo(float).tiny)
    multiplicity = int(np.sum(evals - lam <= DEGENERACY_RTOL * scale))
    if multiplicity > 1 and not allow_degenerate:
        raise DegenerateLawError(
            f"rank-deficient: law ambiguous (smallest eigenvalue has "
            f"multiplicity {multiplicity})"
        )
    w = _fix_sign(evecs[:, 0].copy())
    w = w / np.linalg.norm(w)
    resid = float(np.linalg.norm(C @ w - lam * w))
    bound = EIGENPAIR_RTOL * max(1.0, float(np.linalg.norm(C)))
    if resid > bound:
        raise ConvergenceError(f"eigenpair residual {resid:.3e} exceeds {bound:.3e}")
    # The residual path mean((Yw)^2) is the accurate eigenvalue estimate:
    # forming w C w loses a near-zero eigenvalue to cancellation at
    # eps*||C||, while the per-row dot products cancel before squaring.
    var = float(np.mean((Y.data @ w) ** 2))
    tol = VARIANCE_IDENTITY_RTOL * max(var, lam) + 1e-12 * scale
    if abs(var - lam) > tol:
        raise ConvergenceError(
            f"variance identity violated: mean residual power {var:.17g} "
            f"vs solver eigenvalue {lam:.17g}"
        )
    return LinearLaw(w=w, lam=var, class_tag=class_tag, train_row_count=Y.rows)


def law_variance(beats: np.ndarray | list[Beat], law: LinearLaw) -> float:
    """Mean squared residual of the law over all embedded rows.

    On the fitting set this equals the law's eigenvalue.
    """
    Y = embed_class(beats, law.width)
    return float(np.mean((Y.data @ law.w) ** 2))


def scan_law_length(
    train: Corpus,
    validation: Corpus,
    widths: list[int] | range,
    class_tag: Label = Label.NORMAL,
) -> LawScanReport:
    """Fit a law per width on the training reference class and compare
    its residual variance on the validation reference class. A small
    train/validation gap indicates the law generalizes at that width."""
    train_rows = train.rows(class_tag)
    val_rows = validation.rows(class_tag)
    entries = []
    for width in widths:
        if not 2 <= width <= train.window_len:
            raise ValueError(f"law length {width} outside [2, {train.window_len}]")
        law = fit_law(train_rows, width, class_tag.name.title())
        var_val = law_variance(val_rows, law) if len(val_rows) else float("nan")
        denom = law.lam if law.lam > 0 else np.finfo(float).tiny
        gap = abs(var_val - law.lam) / denom
        entries.append(
            ScanEntry(
                width=width,
                lambda_train=law.lam,
                variance_validation=var_val,
                gap=gap,
                feature_count=train.window_len - width + 1,
            )
        )
    return LawScanReport(entries=entries)
