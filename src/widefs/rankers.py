"""Feature rankers: score and totally order all features of a probe sample.

Five rankers are implemented:

  SU        symmetrical uncertainty on equal-frequency-binned features
  RF_IMP    mean impurity decrease over a bootstrap forest
  RELIEFF   ReliefF with k=3 neighbours on min-max normalized features
  SVM_W     absolute weights of one linear SVM on standardized features
  SVM_RFE   recursive elimination (halve until <= 40 survive, then one
            per round); features eliminated earlier rank lower

All rankers return a full ordering with deterministic tie handling
(ascending feature index) and are invariant to row permutation of the
probe for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifiers import _fit, classifier_kind, linear_svm_weights
from .dataset import Dataset, FeatureSubset
from .utils import canonical_order, entropy_bits, local_labels

RANKER_TAGS = ("SU", "RF_IMP", "RELIEFF", "SVM_W", "SVM_RFE")

RELIEFF_NEIGHBOURS = 3
RFE_HALVING_FLOOR = 40


@dataclass(frozen=True)
class RankedList:
    """Feature indices ordered best first, with their (non-increasing) scores."""

    indices: tuple[int, ...]
    scores: tuple[float, ...]

    def __post_init__(self):
        if len(self.indices) != len(self.scores):
            raise ValueError("indices and scores must have equal length")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("ranked indices must be distinct")
        if any(a < b for a, b in zip(self.scores, self.scores[1:])):
            raise ValueError("scores must be non-increasing in rank order")

    def __len__(self) -> int:
        return len(self.indices)


def _ranked_from_scores(scores: np.ndarray) -> RankedList:
    order = np.lexsort((np.arange(len(scores)), -scores))
    return RankedList(
        indices=tuple(int(i) for i in order),
        scores=tuple(float(scores[i]) for i in order),
    )


def top_k(ranked: RankedList, k: int) -> FeatureSubset:
    """First k ranked features, preserving rank order."""
    if k < 0 or k > len(ranked):
        raise ValueError(f"k={k} out of range for a ranking of {len(ranked)} features")
    return FeatureSubset(ranked.indices[:k])


def rank_features(kind: str, probe: Dataset, seed: int = 0) -> RankedList:
    """Totally order all features of ``probe`` by the chosen ranker."""
    if kind not in RANKER_TAGS:
        raise ValueError(f"unknown ranker tag {kind!r}; expected one of {RANKER_TAGS}")
    X = probe.features
    y = probe.label_indices
    if len(np.unique(y)) < 2:
        raise ValueError("cannot rank features on a constant-label probe")
    order = canonical_order(X, y)
    X, y = X[order], y[order]
    if kind == "SU":
        scores = _su_scores(X, y)
    elif kind == "RF_IMP":
        model = _fit(classifier_kind("RF"), X, y, seed)
        scores = model.state[2]
    elif kind == "RELIEFF":
        scores = _relieff_scores(X, y, k=RELIEFF_NEIGHBOURS)
    elif kind == "SVM_W":
        w, _ = linear_svm_weights(_standardize(X), _signs(y))
        scores = np.abs(w)
    else:  # SVM_RFE
        elimination = svm_rfe_elimination(_standardize(X), _signs(y))
        scores = np.empty(X.shape[1])
        scores[elimination] = np.arange(len(elimination), dtype=float)
    return _ranked_from_scores(np.asarray(scores, dtype=np.float64))


# ---------------------------------------------------------------------------
# symmetrical uncertainty
# ---------------------------------------------------------------------------

def equal_frequency_bins(x: np.ndarray, n_bins: int) -> np.ndarray:
    """Bin ids from equal-frequency edges; identical values share a bin."""
    edges = np.unique(np.quantile(x, np.arange(1, n_bins) / n_bins))
    return np.searchsorted(edges, x, side="right")


def symmetrical_uncertainty(x_bins: np.ndarray, y: np.ndarray) -> float:
    """SU = 2 I(X;Y) / (H(X) + H(Y)), in [0, 1]; 0 when either side is constant."""
    xs, xi = local_labels(x_bins)
    ys, yi = local_labels(y)
    joint = np.zeros((len(xs), len(ys)))
    np.add.at(joint, (xi, yi), 1.0)
    hx = float(entropy_bits(joint.sum(axis=1)))
    hy = float(entropy_bits(joint.sum(axis=0)))
    if hx + hy == 0.0:
        return 0.0
    hxy = float(entropy_bits(joint.reshape(-1)))
    return 2.0 * (hx + hy - hxy) / (hx + hy)


def _su_scores(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    n_bins = max(2, math.ceil(math.sqrt(len(y))))
    return np.array(
        [symmetrical_uncertainty(equal_frequency_bins(X[:, j], n_bins), y) for j in range(X.shape[1])]
    )


# ---------------------------------------------------------------------------
# ReliefF
# ---------------------------------------------------------------------------

def _relieff_scores(X: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    n, n_feat = X.shape
    span = X.max(axis=0) - X.min(axis=0)
    span = np.where(span > 0, span, 1.0)
    Xn = (X - X.min(axis=0)) / span
    dist = np.abs(Xn[:, None, :] - Xn[None, :, :]).sum(axis=2)
    np.fill_diagonal(dist, np.inf)
    classes, counts = np.unique(y, return_counts=True)
    priors = counts / n
    weights = np.zeros(n_feat)
    for i in range(n):
        own = y[i]
        p_own = priors[np.searchsorted(classes, own)]
        for cls, p_cls in zip(classes, priors):
            rows = np.flatnonzero(y == cls)
            rows = rows[rows != i]
            if rows.size == 0:
                continue
            take = min(k, rows.size)
            nearest = rows[np.argsort(dist[i, rows], kind="stable")[:take]]
            diffs = np.abs(Xn[i] - Xn[nearest]).mean(axis=0)
            if cls == own:
                weights -= diffs / n
            else:
                weights += (p_cls / (1.0 - p_own)) * diffs / n
    return weights


# ---------------------------------------------------------------------------
# SVM-based rankers
# ---------------------------------------------------------------------------

def _signs(y: np.ndarray) -> np.ndarray:
    classes = np.unique(y)
    if len(classes) != 2:
        raise ValueError("SVM rankers require exactly 2 classes")
    return np.where(y == classes[1], 1.0, -1.0)


def _standardize(X: np.ndarray) -> np.ndarray:
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    return (X - mu) / np.where(sd > 0, sd, 1.0)


def svm_rfe_elimination(X: np.ndarray, y_signs: np.ndarray, chunks=None) -> list[int]:
    """Elimination order (worst feature first) by recursive SVM refits.

    ``chunks`` optionally fixes the number of features dropped per round;
    by default half the survivors are dropped while more than
    ``RFE_HALVING_FLOOR`` remain, then one per round.  Within a round,
    features are dropped in ascending |weight| (ties drop the higher
    feature index first, so lower indices end up ranked better).
    """
    survivors = list(range(X.shape[1]))
    eliminated: list[int] = []
    chunk_iter = iter(chunks) if chunks is not None else None
    while len(survivors) > 1:
        if chunk_iter is not None:
            try:
                chunk = next(chunk_iter)
            except StopIteration:
                break
        else:
            chunk = len(survivors) // 2 if len(survivors) > RFE_HALVING_FLOOR else 1
        chunk = max(1, min(chunk, len(survivors) - 1))
        w, _ = linear_svm_weights(X[:, survivors], y_signs)
        absw = np.abs(w)
        order = np.lexsort((-np.asarray(survivors), absw))
        drop = [survivors[i] for i in order[:chunk]]
        eliminated.extend(drop)
        survivors = [j for j in survivors if j not in set(drop)]
    eliminated.extend(sorted(survivors, reverse=True))
    return eliminated
