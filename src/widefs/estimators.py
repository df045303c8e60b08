"""Error estimators for probe-trained classifiers.

Estimate kinds:

  RESUB    error on the training sample itself (optimistic)
  LOO      counting leave-one-out on the probe
  SLOO     smoothed leave-one-out: mean of (1 - posterior of the true class)
  RLOO     the full protocol cross-validated: ranking and selection are
           redone inside every fold, then one subset is re-selected on the
           whole probe and returned alongside the estimate
  HOLDOUT  counting error of the probe-trained model on withheld data,
           the working proxy for the unknowable population error

The leave-one-out estimators share one criterion path,
:func:`stacked_loo_passes`: it scores a list of candidate subsets at once,
de-duplicated and grouped by cardinality into stacks of at most
``_STACK`` candidates.  Each candidate keeps its own canonical row order,
so a stacked value is byte-identical to scoring the candidate alone.

The conceptual population-level quantities (the error of the truly best
subset, and of the best subset identifiable from an N-sample) are not
computable objects and exist only as documentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .classifiers import _KINDS, _coerce_kind, _fit, _proba_matrix, _subset_columns, predict_index
from .dataset import Dataset
from .utils import canonical_order, local_labels

ESTIMATE_KINDS = ("RESUB", "LOO", "SLOO", "RLOO", "HOLDOUT")

# candidates per stack; bounds the (B, n, k, k) LDC fold covariances, and
# so peak memory, without giving up batching
_STACK = 16


@dataclass(frozen=True)
class ErrorEstimate:
    """An error value in [0, 1] tagged with the protocol that produced it.

    ``n_evaluations`` counts protocol-level work: model trainings for the
    direct estimators, criterion evaluations for the cross-validated
    selection protocol.
    """

    value: float
    kind: str
    n_evaluations: int

    def __post_init__(self):
        if self.kind not in ESTIMATE_KINDS:
            raise ValueError(f"unknown estimate kind {self.kind!r}")
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"error value {self.value} outside [0, 1]")


def stacked_loo_passes(kind, X: np.ndarray, y: np.ndarray, candidates, seed: int):
    """Per-fold (correct?, posterior of true class) over all leave-one-out
    folds of every candidate: two (B, n) arrays, one row per entry of
    ``candidates`` (tuples of column indices of X), rows in probe order.

    A fold whose training part loses a class entirely is still trained on
    what remains; the held-out instance then has true-class posterior 0.
    The prior-only empty-subset model, and kinds whose table entry has a
    closed-form leave-one-out, compute all folds of a stack at once; the
    rest refit fold by fold.
    """
    kind = _coerce_kind(kind)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.intp)
    classes, y_local = local_labels(y)
    n, m = len(y), len(classes)
    loo = _KINDS[kind.tag].loo
    refit = np.bincount(y_local).min() < 2 or loo is None
    unique = sorted(dict.fromkeys(tuple(c) for c in candidates), key=len)
    correct = np.empty((len(unique), n), dtype=bool)
    p_true = np.empty((len(unique), n))
    start = 0
    for _, group in groupby(unique, key=len):
        group = list(group)
        for first in range(0, len(group), _STACK):
            cols = np.array(group[first:first + _STACK], dtype=np.intp)
            Xs = X.T[cols].swapaxes(1, 2)  # (b, n, k)
            order = canonical_order(Xs, y_local)
            Xc = np.take_along_axis(Xs, order[..., None], axis=1)
            yc = y_local[order]
            if cols.shape[1] == 0:  # each fold predicts its own class frequencies
                probs = (np.bincount(y_local) - (yc[..., None] == np.arange(m))) / (n - 1)
            elif refit:
                probs = np.stack([_loo_refit(kind, Xb, classes[yb], classes, seed) for Xb, yb in zip(Xc, yc)])
            else:
                probs = loo(Xc, yc, m, dict(kind.hyperparams))
            rows = slice(start, start + len(cols))
            np.put_along_axis(correct[rows], order, np.argmax(probs, axis=-1) == yc, axis=1)
            np.put_along_axis(p_true[rows], order, np.take_along_axis(probs, yc[..., None], axis=-1)[..., 0], axis=1)
            start += len(cols)
    where = {c: i for i, c in enumerate(unique)}
    pick = [where[tuple(c)] for c in candidates]
    return correct[pick], p_true[pick]


def loo_passes(kind, X: np.ndarray, y: np.ndarray, seed: int):
    """Per-fold (correct?, posterior of true class) of the model on all of X."""
    correct, p_true = stacked_loo_passes(kind, X, y, [tuple(range(np.shape(X)[1]))], seed)
    return correct[0], p_true[0]


def _loo_refit(kind, X, y, classes, seed):
    """Generic fold-by-fold path; rows are already in canonical order.

    Returns (n, len(classes)) posteriors; a class the fold lost gets 0.
    """
    probs = np.zeros((len(y), len(classes)))
    keep = np.ones(len(y), dtype=bool)
    for i in range(len(y)):
        keep[i] = False
        model = _fit(kind, X[keep], y[keep], seed, presorted=True)
        probs[i, np.searchsorted(classes, model.classes)] = _proba_matrix(model, X[i][None, :])[0]
        keep[i] = True
    return probs


def smoothed_loo_value(kind, X: np.ndarray, y: np.ndarray, candidates, seed: int) -> np.ndarray:
    """Smoothed leave-one-out error of each candidate subset (selection hot path)."""
    _, p_true = stacked_loo_passes(kind, X, y, candidates, seed)
    return np.mean(1.0 - p_true, axis=1)


def resubstitution_error(kind, probe: Dataset, subset=None, seed: int = 0) -> ErrorEstimate:
    """Error of the probe-trained model measured on the probe itself."""
    cols = _subset_columns(subset, probe.n_features)
    X = probe.features[:, cols]
    model = _fit(_coerce_kind(kind), X, probe.label_indices, seed)
    wrong = predict_index(model, X) != probe.label_indices
    return ErrorEstimate(value=float(np.mean(wrong)), kind="RESUB", n_evaluations=1)


def loo_error(kind, probe: Dataset, subset=None, seed: int = 0, smoothed: bool = False) -> ErrorEstimate:
    """Leave-one-out error on the probe; counting by default, smoothed on request."""
    cols = _subset_columns(subset, probe.n_features)
    correct, p_true = loo_passes(kind, probe.features[:, cols], probe.label_indices, seed)
    if smoothed:
        return ErrorEstimate(
            value=float(np.mean(1.0 - p_true)), kind="SLOO", n_evaluations=len(correct)
        )
    return ErrorEstimate(
        value=float(np.mean(~correct)), kind="LOO", n_evaluations=len(correct)
    )


def holdout_true_error(kind, probe: Dataset, subset, holdout: Dataset, seed: int = 0) -> ErrorEstimate:
    """Counting error on the holdout rows of the model trained on the probe."""
    if holdout.n_instances == 0:
        raise ValueError("holdout must be non-empty")
    if not set(holdout.class_names) <= set(probe.class_names):
        raise ValueError("holdout classes must be a subset of probe classes")
    cols = _subset_columns(subset, probe.n_features)
    model = _fit(_coerce_kind(kind), probe.features[:, cols], probe.label_indices, seed)
    # align holdout label indices to the probe's class list
    probe_index = {c: k for k, c in enumerate(probe.class_names)}
    y_hold = np.array([probe_index[c] for c in holdout.labels], dtype=np.intp)
    wrong = predict_index(model, holdout.features[:, cols]) != y_hold
    return ErrorEstimate(value=float(np.mean(wrong)), kind="HOLDOUT", n_evaluations=1)


def proper_rloo_error(kind, ranker, scheme, probe: Dataset, seed: int = 0):
    """Cross-validate the whole pipeline: rank and select inside each fold.

    Returns (estimate, subset): the estimate averages the per-fold
    counting errors of models trained on fold-selected subsets; the
    returned subset is re-selected on the full probe, which is what the
    pipeline would hand to a user.
    """
    from .rankers import rank_features
    from .selectors import select, selection_scheme

    kind = _coerce_kind(kind)
    scheme = selection_scheme(getattr(scheme, "tag", scheme))
    n = probe.n_instances
    wrong = 0
    for i in range(n):
        rows = np.delete(np.arange(n), i)
        fold = probe.take_rows(rows, name=f"{probe.name}[fold{i}]")
        ranked = None if scheme.tag == "ALL" else rank_features(ranker, fold, seed)
        chosen = select(scheme, ranked, kind, fold, seed).subset
        cols = chosen.array
        model = _fit(kind, fold.features[:, cols], fold.label_indices, seed)
        pred = predict_index(model, probe.features[i][None, cols])[0]
        wrong += int(pred != probe.label_indices[i])
    ranked_full = None if scheme.tag == "ALL" else rank_features(ranker, probe, seed)
    final = select(scheme, ranked_full, kind, probe, seed)
    estimate = ErrorEstimate(
        value=wrong / n, kind="RLOO", n_evaluations=n * scheme.budget + scheme.budget
    )
    return estimate, final.subset
