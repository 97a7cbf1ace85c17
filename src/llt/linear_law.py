"""Fitting linear laws: correlation matrix, symmetric eigensolve by
LAPACK, and the smallest-eigenpair selection that defines a law.

The law of a class is the unit vector w minimizing the mean squared
residual of w against the class's embedded windows; by the Lagrange
condition this is the eigenvector of C = Y^T Y / K with the smallest
eigenvalue, and that eigenvalue equals the training residual variance.
`fit_law` alone checks a fit's inputs and solution; each of its errors
names the class and the width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddedMatrix, check_width, embed_class
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
    """C = Y^T Y / K of an `embed_class` matrix, which has a row. It is
    exactly symmetric as computed: numpy forms ``A.T @ A`` by BLAS
    ``syrk``, which computes one triangle and copies it to the other."""
    return Y.data.T @ Y.data / Y.rows


def jacobi_eigensystem(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigensystem of a symmetric matrix by LAPACK (``numpy.linalg.eigh``).

    Returns (eigenvalues ascending, eigenvectors as columns). Only the
    lower triangle is read, so the input must already be symmetric.
    """
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    return np.linalg.eigh(A)


def _fix_sign(w: np.ndarray) -> np.ndarray:
    """First nonzero component made positive (reproducible orientation)."""
    for v in w:
        if v != 0.0:
            return -w if v < 0.0 else w
    return w


def _residual_power(Y: np.ndarray, w: np.ndarray) -> float:
    """mean((Y w)^2), squared in place and summed as `np.mean` sums."""
    r = Y @ w
    r *= r
    return float(np.add.reduce(r) / len(r))


def fit_law(beats: np.ndarray | list[Beat], width: int, class_tag: str,
            allow_degenerate: bool = False) -> LinearLaw:
    """Fit the linear law of a class, given as an (N, L) sample array or
    a list of beats: embed, correlate, take the smallest eigenpair, and
    verify its residual ``||Cw - lam w||`` and the variance identity.
    No beat or a width outside [2, L] raises ValueError, an ambiguous
    law DegenerateLawError and a failed check ConvergenceError, each
    message starting ``<class_tag> law at width <width>: ``."""
    try:
        Y = embed_class(beats, width)
        C = correlation(Y)
        evals, evecs = jacobi_eigensystem(C)
        lam = float(evals[0])
        scale = max(float(np.trace(C)), np.finfo(float).tiny)
        multiplicity = int(np.sum(evals - lam <= DEGENERACY_RTOL * scale))
        if multiplicity > 1 and not allow_degenerate:
            raise DegenerateLawError(f"rank-deficient: law ambiguous (smallest eigenvalue "
                                     f"has multiplicity {multiplicity})")
        w = _fix_sign(evecs[:, 0].copy())
        w = w / math.sqrt(w.dot(w))  # the arithmetic of np.linalg.norm
        r, c = C @ w - lam * w, C.ravel()
        resid, bound = math.sqrt(r.dot(r)), EIGENPAIR_RTOL * max(1.0, math.sqrt(c.dot(c)))
        if resid > bound:
            raise ConvergenceError(f"eigenpair residual {resid:.3e} exceeds {bound:.3e}")
        # The residual path mean((Yw)^2) is the accurate eigenvalue estimate:
        # forming w C w loses a near-zero eigenvalue to cancellation at
        # eps*||C||, while the per-row dot products cancel before squaring.
        var = _residual_power(Y.data, w)
        tol = VARIANCE_IDENTITY_RTOL * max(var, lam) + 1e-12 * scale
        if abs(var - lam) > tol:
            raise ConvergenceError(f"variance identity violated: mean residual power "
                                   f"{var:.17g} vs solver eigenvalue {lam:.17g}")
        return LinearLaw(w=w, lam=var, class_tag=class_tag, train_row_count=Y.rows)
    except (ValueError, ConvergenceError) as e:
        raise type(e)(f"{class_tag} law at width {width}: {e}") from None


def law_variance(beats: np.ndarray | list[Beat], law: LinearLaw) -> float:
    """Mean squared residual of the law over all embedded rows, the
    arithmetic of `fit_law`'s variance identity: on the fitting set
    this is the law's ``lam`` exactly."""
    return _residual_power(embed_class(beats, law.width).data, law.w)


def scan_law_length(train: Corpus, validation: Corpus, widths: list[int] | range,
                    class_tag: Label = Label.NORMAL) -> LawScanReport:
    """Fit a law per width on the training reference class and compare
    its residual variance on the validation reference class. A small
    train/validation gap indicates the law generalizes at that width.
    A validation part without a non-artifact beat of the class, or a
    width outside [2, L] of either part, raises ValueError before any
    fit, the latter as `fit_law` would."""
    train_rows, val_rows = train.rows(class_tag), validation.rows(class_tag)
    tag = class_tag.name.title()
    if not len(val_rows):
        raise ValueError(f"the validation part holds no non-artifact "
                         f"{class_tag.value!r} beat to check the {tag} law on")
    length = min(train.window_len, validation.window_len)
    for width in widths:
        try:
            check_width(width, length)
        except ValueError as e:
            raise ValueError(f"{tag} law at width {width}: {e}") from None
    entries = []
    for width in widths:
        law = fit_law(train_rows, width, tag)
        var_val = law_variance(val_rows, law)
        with np.errstate(over="ignore"):  # inf, not a warning, at a lam of 0 or near it
            gap = abs(var_val - law.lam) / (law.lam if law.lam > 0 else np.finfo(float).tiny)
        entries.append(ScanEntry(width=width, lambda_train=law.lam, variance_validation=var_val,
                                 gap=gap, feature_count=train.window_len - width + 1))
    return LawScanReport(entries=entries)
