"""Seven trainable classifier kinds with posterior-probability output.

All models are implemented natively at desk scale and are deterministic
given (training data, hyperparameters, seed); training data is reordered
canonically first so row permutations cannot change the result.  Posterior
conventions per kind:

  NN1   softmax over negated per-class nearest distances
  DT    class distribution of the training rows in the reached leaf
  LDC   Bayes rule on Gaussians with a shared (ridge-regularized) covariance
  NB    Gaussian naive Bayes with per-class variance floors
  RF    average of the trees' leaf distributions
  SVMG/SVML  discrete {0, 1} by decision side (no calibration)

An empty feature subset is legal for every kind and yields a prior-only
model that predicts the training class frequencies everywhere.

A kind is defined in one place, its entry in the table ``_KINDS`` at the
end of this module: defaults, fit, posterior and, where sufficient
statistics allow it, an exact all-folds leave-one-out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .dataset import Dataset
from .utils import canonical_order, entropy_bits, local_labels


@dataclass(frozen=True)
class ClassifierKind:
    tag: str
    hyperparams: tuple = ()


def classifier_kind(tag: str, **overrides) -> ClassifierKind:
    """Build a ClassifierKind with defaults, validating tag and override keys."""
    if tag not in CLASSIFIER_TAGS:
        raise ValueError(f"unknown classifier tag {tag!r}; expected one of {CLASSIFIER_TAGS}")
    params = dict(_KINDS[tag].defaults)
    for key, value in overrides.items():
        if key not in params:
            raise ValueError(f"unknown hyperparameter {key!r} for {tag}")
        params[key] = type(params[key])(value)
    return ClassifierKind(tag=tag, hyperparams=tuple(sorted(params.items())))


def _coerce_kind(kind) -> ClassifierKind:
    if isinstance(kind, ClassifierKind):
        return kind
    return classifier_kind(str(kind))


@dataclass
class TrainedModel:
    """A fitted classifier restricted to one feature subset.

    ``classes`` holds the label indices seen in training (ascending);
    posteriors align with it.  ``class_names`` carries the matching names
    when the model was trained through :func:`train`.
    """

    kind: ClassifierKind
    classes: np.ndarray
    n_features: int
    priors: np.ndarray
    state: object
    class_names: tuple[str, ...] | None = None


# ---------------------------------------------------------------------------
# decision trees (used directly and inside the forest)
# ---------------------------------------------------------------------------

@dataclass
class _TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None
    dist: np.ndarray | None = None


def _best_split(X, y, n_classes, candidates):
    """Best (gain, feature, threshold) over candidate features; None if no gain.

    Vectorized over candidates: one argsort per node.  Ties on gain fall
    to the lower feature index, then the lower threshold.
    """
    if len(y) <= _SMALL_N:
        return _best_split_small(X, y, n_classes, candidates)
    cand = np.asarray(list(candidates), dtype=np.intp)
    n = len(y)
    cols = X[:, cand]
    order = np.argsort(cols, axis=0, kind="stable")
    xs = np.take_along_axis(cols, order, axis=0)
    ys = y[order]  # (n, c)
    onehot = np.zeros((n, len(cand), n_classes))
    np.put_along_axis(onehot, ys[:, :, None], 1.0, axis=2)
    cum = np.cumsum(onehot, axis=0)
    parent_h = float(entropy_bits(cum[-1, 0]))
    splittable = xs[:-1] < xs[1:]  # (n-1, c)
    if not splittable.any():
        return None
    left = cum[:-1]
    right = cum[-1][None, :, :] - left
    nl = np.arange(1, n, dtype=float)[:, None]
    gain = parent_h - (nl * entropy_bits(left) + (n - nl) * entropy_bits(right)) / n
    gain = np.where(splittable, gain, -np.inf)
    thresholds = 0.5 * (xs[:-1] + xs[1:])
    pos, col = np.unravel_index(
        np.lexsort((thresholds.ravel(), np.broadcast_to(cand, gain.shape).ravel(), -gain.ravel()))[0],
        gain.shape,
    )
    g = float(gain[pos, col])
    if g <= 1e-12:
        return None
    return g, int(cand[col]), float(thresholds[pos, col])


def _entropy_scalar(counts, total):
    h = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            h -= p * math.log(p)
    return h / math.log(2.0)


def _best_split_small(X, y, n_classes, candidates):
    """Plain-Python twin of :func:`_best_split` for tiny nodes."""
    n = len(y)
    ys = [int(v) for v in y]
    parent = [0] * n_classes
    for t in ys:
        parent[t] += 1
    parent_h = _entropy_scalar(parent, n)
    best_key = None
    best = None
    for j in candidates:
        col = X[:, j].tolist()
        order = sorted(range(n), key=lambda t: (col[t], t))
        left = [0] * n_classes
        for pos in range(n - 1):
            left[ys[order[pos]]] += 1
            lo_v, hi_v = col[order[pos]], col[order[pos + 1]]
            if lo_v >= hi_v:
                continue
            nl = pos + 1
            nr = n - nl
            right = [p - q for p, q in zip(parent, left)]
            gain = parent_h - (nl * _entropy_scalar(left, nl) + nr * _entropy_scalar(right, nr)) / n
            thr = 0.5 * (lo_v + hi_v)
            key = (-gain, int(j), thr)
            if best_key is None or key < best_key:
                best_key = key
                best = (gain, int(j), thr)
    if best is None or best[0] <= 1e-12:
        return None
    return best


def _draw_candidates(rng, k, size):
    """Sorted uniform sample of ``size`` feature indices without replacement."""
    picked = []
    pool = list(range(k))
    for i in range(size):
        j = i + int(rng.integers(k - i))
        pool[i], pool[j] = pool[j], pool[i]
        picked.append(pool[i])
    picked.sort()
    return picked


def _grow_tree(X, y, n_classes, rng=None, n_candidates=None, min_split=2, importances=None):
    counts = np.bincount(y, minlength=n_classes).astype(float)
    node = _TreeNode(dist=counts / counts.sum())
    if len(y) < min_split or np.count_nonzero(counts) <= 1:
        return node
    if n_candidates is None or n_candidates >= X.shape[1]:
        candidates = range(X.shape[1])
    else:
        candidates = _draw_candidates(rng, X.shape[1], n_candidates)
    split = _best_split(X, y, n_classes, candidates)
    if split is None:
        return node
    gain, j, thr = split
    if importances is not None:
        importances[j] += gain * len(y)
    mask = X[:, j] <= thr
    node.feature = j
    node.threshold = thr
    node.dist = None
    node.left = _grow_tree(X[mask], y[mask], n_classes, rng, n_candidates, min_split, importances)
    node.right = _grow_tree(X[~mask], y[~mask], n_classes, rng, n_candidates, min_split, importances)
    return node


def _tree_proba(node: _TreeNode, x: np.ndarray) -> np.ndarray:
    while node.dist is None:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.dist


# ---------------------------------------------------------------------------
# SMO solver for the SVMs
# ---------------------------------------------------------------------------

_SMALL_N = 32


def _smo_solve(K: np.ndarray, y: np.ndarray, c: float, tol: float):
    """Sequential minimal optimization on a precomputed kernel; y in {-1,+1}.

    Works on the maximal violating pair each iteration (deterministic:
    argmax/argmin take the lowest index on ties) and stops once the KKT
    duality gap drops below ``tol``.  Returns (alphas, bias).
    """
    if len(y) <= _SMALL_N:
        return _smo_solve_small(K.tolist(), y.tolist(), c, tol)
    n = len(y)
    alphas = np.zeros(n)
    f = np.zeros(n)  # f_t = sum_j alpha_j y_j K_tj
    for _ in range(200 * n + 200):
        viol = y - f
        up = (y > 0) & (alphas < c) | (y < 0) & (alphas > 0)
        low = (y < 0) & (alphas < c) | (y > 0) & (alphas > 0)
        if not up.any() or not low.any():
            break
        i = int(np.argmax(np.where(up, viol, -np.inf)))
        j = int(np.argmin(np.where(low, viol, np.inf)))
        if viol[i] - viol[j] <= tol:
            break
        if y[i] != y[j]:
            lo = max(0.0, alphas[j] - alphas[i])
            hi = min(c, c + alphas[j] - alphas[i])
        else:
            lo = max(0.0, alphas[i] + alphas[j] - c)
            hi = min(c, alphas[i] + alphas[j])
        eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
        ei, ej = f[i] - y[i], f[j] - y[j]
        if eta < -1e-12:
            aj = alphas[j] - y[j] * (ei - ej) / eta
        else:
            # flat direction (e.g. duplicate points): jump to the better bound
            aj = hi if y[j] * (ei - ej) > 0 else lo
        aj = min(hi, max(lo, aj))
        if abs(aj - alphas[j]) < 1e-12:
            break
        ai = alphas[i] + y[i] * y[j] * (alphas[j] - aj)
        f += (ai - alphas[i]) * y[i] * K[:, i] + (aj - alphas[j]) * y[j] * K[:, j]
        alphas[i], alphas[j] = ai, aj
    viol = y - f
    up = (y > 0) & (alphas < c) | (y < 0) & (alphas > 0)
    low = (y < 0) & (alphas < c) | (y > 0) & (alphas > 0)
    hi_v = np.max(np.where(up, viol, -np.inf)) if up.any() else 0.0
    lo_v = np.min(np.where(low, viol, np.inf)) if low.any() else 0.0
    if not math.isfinite(hi_v):
        hi_v = lo_v if math.isfinite(lo_v) else 0.0
    if not math.isfinite(lo_v):
        lo_v = hi_v
    b = 0.5 * (hi_v + lo_v)
    return alphas, b


def _smo_solve_small(K, y, c, tol):
    """Plain-Python twin of :func:`_smo_solve` for tiny problems, where the
    per-op overhead of array code dominates.  Same selection and update
    rules, so results agree up to float round-off."""
    n = len(y)
    alphas = [0.0] * n
    f = [0.0] * n
    for _ in range(200 * n + 200):
        up_v, i = -math.inf, -1
        low_v, j = math.inf, -1
        for t in range(n):
            v = y[t] - f[t]
            a = alphas[t]
            if (y[t] > 0 and a < c) or (y[t] < 0 and a > 0):
                if v > up_v:
                    up_v, i = v, t
            if (y[t] < 0 and a < c) or (y[t] > 0 and a > 0):
                if v < low_v:
                    low_v, j = v, t
        if i < 0 or j < 0 or up_v - low_v <= tol:
            break
        if y[i] != y[j]:
            lo = max(0.0, alphas[j] - alphas[i])
            hi = min(c, c + alphas[j] - alphas[i])
        else:
            lo = max(0.0, alphas[i] + alphas[j] - c)
            hi = min(c, alphas[i] + alphas[j])
        eta = 2.0 * K[i][j] - K[i][i] - K[j][j]
        ei, ej = f[i] - y[i], f[j] - y[j]
        if eta < -1e-12:
            aj = alphas[j] - y[j] * (ei - ej) / eta
        else:
            aj = hi if y[j] * (ei - ej) > 0 else lo
        aj = min(hi, max(lo, aj))
        if abs(aj - alphas[j]) < 1e-12:
            break
        ai = alphas[i] + y[i] * y[j] * (alphas[j] - aj)
        si = (ai - alphas[i]) * y[i]
        sj = (aj - alphas[j]) * y[j]
        ki, kj = K[i], K[j]
        for t in range(n):
            f[t] += si * ki[t] + sj * kj[t]
        alphas[i], alphas[j] = ai, aj
    up_v, low_v = -math.inf, math.inf
    for t in range(n):
        v = y[t] - f[t]
        a = alphas[t]
        if (y[t] > 0 and a < c) or (y[t] < 0 and a > 0):
            up_v = max(up_v, v)
        if (y[t] < 0 and a < c) or (y[t] > 0 and a > 0):
            low_v = min(low_v, v)
    if not math.isfinite(up_v):
        up_v = low_v if math.isfinite(low_v) else 0.0
    if not math.isfinite(low_v):
        low_v = up_v
    return np.asarray(alphas), 0.5 * (up_v + low_v)


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of A and of B (may dip below 0)."""
    return np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :] - 2.0 * (A @ B.T)


def _rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    return np.exp(-gamma * np.maximum(_sq_dists(A, B), 0.0))


def linear_svm_weights(X: np.ndarray, y_signs: np.ndarray, c: float = 1.0, tol: float = 1e-3):
    """Train a linear SVM by SMO; return (weight vector, bias)."""
    K = X @ X.T
    alphas, b = _smo_solve(K, y_signs, c, tol)
    return X.T @ (alphas * y_signs), b


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def _fit(kind: ClassifierKind, X: np.ndarray, y: np.ndarray, seed: int, presorted: bool = False) -> TrainedModel:
    """Fit on a column-restricted matrix; y are integer label indices.

    ``presorted`` skips the canonical reordering when the caller already
    passes rows in canonical order (e.g. fold slices of a sorted probe).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.intp)
    if not presorted:
        order = canonical_order(X, y)
        X, y = X[order], y[order]
    classes, y_local = local_labels(y)
    m = len(classes)
    counts = np.bincount(y_local, minlength=m).astype(float)
    priors = counts / counts.sum()
    model = TrainedModel(kind=kind, classes=classes, n_features=X.shape[1], priors=priors, state=None)
    if X.shape[1] == 0 or m == 1:
        model.state = ("prior",)
    else:
        model.state = _KINDS[kind.tag].fit(X, y_local, priors, dict(kind.hyperparams), seed)
    return model


def train(kind, data: Dataset, subset=None, seed: int = 0) -> TrainedModel:
    """Train a classifier of ``kind`` on ``data`` restricted to ``subset``.

    ``subset`` is a FeatureSubset, an index sequence, or None for all
    features; an empty subset gives the prior-only model.
    """
    kind = _coerce_kind(kind)
    cols = _subset_columns(subset, data.n_features)
    X = data.features[:, cols] if len(cols) else np.empty((data.n_instances, 0))
    model = _fit(kind, X, data.label_indices, seed)
    model.class_names = tuple(data.class_names[k] for k in model.classes)
    return model


def _subset_columns(subset, n_features: int) -> np.ndarray:
    if subset is None:
        return np.arange(n_features, dtype=np.intp)
    indices = np.asarray(getattr(subset, "indices", subset), dtype=np.intp)
    if indices.size and (indices.min() < 0 or indices.max() >= n_features):
        raise ValueError("feature subset index out of range")
    return indices


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def predict_proba(model: TrainedModel, x) -> np.ndarray:
    """Posterior vector(s) over ``model.classes`` for one instance or a batch."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.shape[1] != model.n_features:
        raise ValueError(
            f"instance has {X.shape[1]} features; model expects {model.n_features}"
        )
    probs = _proba_matrix(model, X)
    return probs[0] if single else probs


def _proba_matrix(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    if model.state[0] == "prior":
        return np.tile(model.priors, (X.shape[0], 1))
    return _KINDS[model.kind.tag].proba(model.state, X, len(model.classes))


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def predict_index(model: TrainedModel, x) -> np.ndarray | int:
    """Predicted label index (argmax posterior, ties toward lower class index)."""
    probs = predict_proba(model, x)
    if probs.ndim == 1:
        return int(model.classes[int(np.argmax(probs))])
    return model.classes[np.argmax(probs, axis=1)]


def predict_label(model: TrainedModel, x):
    """Predicted class identifier (name when available, else label index)."""
    idx = predict_index(model, x)
    if model.class_names is None:
        return idx
    lookup = {int(c): name for c, name in zip(model.classes, model.class_names)}
    if np.ndim(idx) == 0:
        return lookup[int(idx)]
    return np.array([lookup[int(i)] for i in idx], dtype=object)


# ---------------------------------------------------------------------------
# the kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Kind:
    """One classifier kind: default hyperparameters and three functions.

    All see rows in canonical order and local labels y in 0..m-1.
    ``fit(X, y, priors, params, seed)`` returns the model state (m >= 2, at
    least one column); ``proba(state, X, m)`` returns (n, m) posteriors;
    ``loo(X, y, m, params)`` returns every row's posterior under the model
    fitted without it, given 2+ rows per class, and must equal the
    fold-by-fold refit that runs where it is None.
    """

    defaults: dict
    fit: Callable
    proba: Callable
    loo: Callable | None = None


def _fit_nn1(X, y, priors, params, seed):
    return ("nn1", X, y)


def _proba_nn1(state, X, m):
    _, Xt, yt = state
    d = np.sqrt(np.maximum(_sq_dists(X, Xt), 0.0))
    dmin = np.full((X.shape[0], m), np.inf)
    for k in range(m):
        dmin[:, k] = d[:, yt == k].min(axis=1)
    return _softmax(-dmin)


def _loo_nn1(X, y, m, params):
    """All folds at once: the fold only removes the test point itself."""
    n = len(y)
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    d = np.sqrt(np.maximum(d2, 0.0))
    np.fill_diagonal(d, np.inf)
    dmin = np.empty((n, m))
    for k in range(m):
        dmin[:, k] = d[:, y == k].min(axis=1)
    return _softmax(-dmin)


def _fit_dt(X, y, priors, params, seed):
    return ("dt", _grow_tree(X, y, len(priors), min_split=params["min_split"]))


def _proba_dt(state, X, m):
    return np.stack([_tree_proba(state[1], row) for row in X])


def _fit_ldc(X, y, priors, params, seed):
    m = len(priors)
    means = np.stack([X[y == k].mean(axis=0) for k in range(m)])
    centered = X - means[y]
    dof = max(1, len(y) - m)
    cov = (centered.T @ centered) / dof
    reg = params["ridge"] * np.trace(cov) / X.shape[1] + 1e-12
    prec = np.linalg.pinv(cov + reg * np.eye(X.shape[1]))
    return ("ldc", means, prec, np.log(priors))


def _proba_ldc(state, X, m):
    _, means, prec, log_priors = state
    pm = means @ prec
    scores = X @ pm.T - 0.5 * np.sum(pm * means, axis=1)[None, :] + log_priors[None, :]
    return _softmax(scores)


def _loo_ldc(X, y, m, params):
    """Batched LDC folds via rank-1 scatter downdates and stacked pinv."""
    n, k = X.shape
    counts = np.bincount(y, minlength=m).astype(float)
    sums = np.zeros((m, k))
    np.add.at(sums, y, X)
    means = sums / counts[:, None]
    centered = X - means[y]
    scatter = centered.T @ centered
    w = counts[y] / (counts[y] - 1.0)
    scatters = scatter[None, :, :] - w[:, None, None] * centered[:, :, None] * centered[:, None, :]
    dof = max(1, (n - 1) - m)
    covs = scatters / dof
    trace = np.einsum("ijj->i", covs)
    reg = params["ridge"] * trace / k + 1e-12
    covs = covs + reg[:, None, None] * np.eye(k)[None, :, :]
    prec = np.linalg.pinv(covs)
    fold_means = np.broadcast_to(means, (n, m, k)).copy()
    own = (sums[y] - X) / (counts[y] - 1.0)[:, None]
    fold_means[np.arange(n), y] = own
    fold_counts = np.tile(counts, (n, 1))
    fold_counts[np.arange(n), y] -= 1.0
    log_priors = np.log(fold_counts / (n - 1))
    pm = np.einsum("imk,ikl->iml", fold_means, prec)
    scores = (
        np.einsum("ik,imk->im", X, pm)
        - 0.5 * np.einsum("imk,imk->im", pm, fold_means)
        + log_priors
    )
    return _softmax(scores)


def _fit_nb(X, y, priors, params, seed):
    m = len(priors)
    means = np.stack([X[y == k].mean(axis=0) for k in range(m)])
    variances = np.stack([X[y == k].var(axis=0) for k in range(m)])
    rng_span = X.max(axis=0) - X.min(axis=0)
    floor = np.where(rng_span > 0, params["var_floor_scale"] * rng_span**2, 1.0)
    variances = np.maximum(variances, floor)
    return ("nb", means, variances, np.log(priors))


def _proba_nb(state, X, m):
    _, means, variances, log_priors = state
    ll = -0.5 * (
        np.log(2.0 * math.pi * variances)[None, :, :]
        + (X[:, None, :] - means[None, :, :]) ** 2 / variances[None, :, :]
    ).sum(axis=2)
    return _softmax(ll + log_priors[None, :])


def _loo_nb(X, y, m, params):
    """Batched Gaussian naive Bayes folds via sum/sum-square downdates."""
    n, k = X.shape
    counts = np.bincount(y, minlength=m).astype(float)
    s1 = np.zeros((m, k))
    s2 = np.zeros((m, k))
    np.add.at(s1, y, X)
    np.add.at(s2, y, X * X)
    base_mean = s1 / counts[:, None]
    base_var = s2 / counts[:, None] - base_mean**2
    fold_means = np.broadcast_to(base_mean, (n, m, k)).copy()
    fold_vars = np.broadcast_to(base_var, (n, m, k)).copy()
    own_n = (counts[y] - 1.0)[:, None]
    own_mean = (s1[y] - X) / own_n
    own_var = (s2[y] - X * X) / own_n - own_mean**2
    rows = np.arange(n)
    fold_means[rows, y] = own_mean
    fold_vars[rows, y] = np.maximum(own_var, 0.0)
    # per-fold feature ranges: drop row i from the column max/min
    hi_idx = np.argmax(X, axis=0)
    lo_idx = np.argmin(X, axis=0)
    tmp = X.copy()
    tmp[hi_idx, np.arange(k)] = -np.inf
    hi2 = tmp.max(axis=0)
    tmp = X.copy()
    tmp[lo_idx, np.arange(k)] = np.inf
    lo2 = tmp.min(axis=0)
    fold_hi = np.where(rows[:, None] == hi_idx[None, :], hi2[None, :], X[hi_idx, np.arange(k)][None, :])
    fold_lo = np.where(rows[:, None] == lo_idx[None, :], lo2[None, :], X[lo_idx, np.arange(k)][None, :])
    span = fold_hi - fold_lo
    floor = np.where(span > 0, params["var_floor_scale"] * span**2, 1.0)
    fold_vars = np.maximum(fold_vars, floor[:, None, :])
    fold_counts = np.tile(counts, (n, 1))
    fold_counts[rows, y] -= 1.0
    log_priors = np.log(fold_counts / (n - 1))
    ll = -0.5 * (np.log(2.0 * math.pi * fold_vars) + (X[:, None, :] - fold_means) ** 2 / fold_vars).sum(axis=2)
    return _softmax(ll + log_priors)


def _fit_rf(X, y, priors, params, seed):
    n_trees = params["n_trees"]
    n_candidates = max(1, math.ceil(math.sqrt(X.shape[1])))
    importances = np.zeros(X.shape[1])
    trees = []
    for t in range(n_trees):
        # one independent child stream per tree (same streams as
        # SeedSequence(seed).spawn(n_trees), built without the overhead)
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
        )
        rows = rng.integers(0, len(y), size=len(y))
        tree_imp = np.zeros(X.shape[1])
        trees.append(
            _grow_tree(X[rows], y[rows], len(priors), rng, n_candidates, importances=tree_imp)
        )
        importances += tree_imp / len(y)
    return ("rf", trees, importances / n_trees)


def _proba_rf(state, X, m):
    _, trees, _ = state
    acc = np.zeros((X.shape[0], m))
    for i, row in enumerate(X):
        for tree in trees:
            acc[i] += _tree_proba(tree, row)
    return acc / len(trees)


def _fit_svm(X, y, priors, params, seed, rbf):
    if len(priors) != 2:
        raise ValueError("SVM classifiers support exactly 2 classes")
    signs = np.where(y == 1, 1.0, -1.0)
    if rbf:
        gamma = 1.0 / X.shape[1]
        K = _rbf_kernel(X, X, gamma)
    else:
        gamma = None
        K = X @ X.T
    alphas, b = _smo_solve(K, signs, params["c"], params["tol"])
    sv = alphas > 0
    return ("svm", X[sv], (alphas * signs)[sv], b, gamma)


def _proba_svm(state, X, m):
    _, sv, coef, b, gamma = state
    n = X.shape[0]
    if gamma is None:
        f = X @ (sv.T @ coef) + b if len(coef) else np.full(n, b)
    else:
        f = (_rbf_kernel(X, sv, gamma) @ coef + b) if len(coef) else np.full(n, b)
    return np.eye(2)[(f > 0).astype(np.intp)]  # all mass on the decision side


_KINDS = {
    "NN1": _Kind({}, _fit_nn1, _proba_nn1, _loo_nn1),
    "DT": _Kind({"min_split": 2}, _fit_dt, _proba_dt),
    "LDC": _Kind({"ridge": 1e-3}, _fit_ldc, _proba_ldc, _loo_ldc),
    "NB": _Kind({"var_floor_scale": 1e-9}, _fit_nb, _proba_nb, _loo_nb),
    "RF": _Kind({"n_trees": 100}, _fit_rf, _proba_rf),
    "SVMG": _Kind({"c": 1.0, "tol": 1e-3}, partial(_fit_svm, rbf=True), _proba_svm),
    "SVML": _Kind({"c": 1.0, "tol": 1e-3}, partial(_fit_svm, rbf=False), _proba_svm),
}

CLASSIFIER_TAGS = tuple(_KINDS)
