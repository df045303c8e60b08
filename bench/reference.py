"""Reference implementations the benchmark checks widefs against.

Written from the classifier definitions, fold by fold, without calling
widefs: NN1 posteriors are a softmax over negated per-class nearest
Euclidean distances, LDC posteriors are Bayes' rule with a shared
ridge-regularised covariance.  Each leave-one-out fold refits from the
19 remaining rows; the empty subset is the prior-only model.  Candidates
are batched only along the subset axis, never along the fold axis.

The SVM check recomputes the KKT gap of a trained model from its support
vectors, coefficients and the training rows.
"""

from __future__ import annotations

import numpy as np

LDC_RIDGE = 1e-3


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _prior(y_train: np.ndarray, m: int) -> np.ndarray:
    return np.bincount(y_train, minlength=m) / len(y_train)


def nn1_posteriors(X_train, y_train, X_test, masks) -> np.ndarray:
    """Posteriors (candidates, test rows, classes) of NN1 per column mask.

    ``masks`` is a (candidates, features) 0/1 matrix over the columns of X.
    """
    m = int(y_train.max()) + 1
    masks = np.asarray(masks, dtype=np.float64)
    diff2 = (X_test[:, None, :] - X_train[None, :, :]) ** 2  # (test, train, features)
    d = np.sqrt(np.einsum("cf,tjf->ctj", masks, diff2))
    dmin = np.stack([d[:, :, y_train == k].min(axis=2) for k in range(m)], axis=2)
    probs = _softmax(-dmin)
    empty = masks.sum(axis=1) == 0
    probs[empty] = _prior(y_train, m)
    return probs


def ldc_posteriors(X_train, y_train, X_test, ridge=LDC_RIDGE) -> np.ndarray:
    """Posteriors (candidates, test rows, classes) of LDC, one model per
    candidate; X_train is (candidates, rows, k), X_test (candidates, t, k)."""
    m = int(y_train.max()) + 1
    b, n, k = X_train.shape
    if k == 0:
        return np.broadcast_to(_prior(y_train, m), (b, X_test.shape[1], m)).copy()
    means = np.stack([X_train[:, y_train == c].mean(axis=1) for c in range(m)], axis=1)
    centered = X_train - means[:, y_train]
    cov = centered.transpose(0, 2, 1) @ centered / max(1, n - m)
    reg = ridge * np.trace(cov, axis1=1, axis2=2) / k + 1e-12
    prec = np.linalg.pinv(cov + reg[:, None, None] * np.eye(k))
    log_prior = np.log(_prior(y_train, m))
    scores = np.stack(
        [
            np.einsum("btk,bkl,bl->bt", X_test - 0.5 * means[:, None, c], prec, means[:, c]) + log_prior[c]
            for c in range(m)
        ],
        axis=2,
    )
    return _softmax(scores)


def loo_nn1(X, y, masks):
    """(correct, p_true) per candidate mask and left-out row: arrays (c, n)."""
    n = len(y)
    masks = np.atleast_2d(masks)
    correct = np.empty((len(masks), n), dtype=bool)
    p_true = np.empty((len(masks), n))
    for i in range(n):
        keep = np.arange(n) != i
        probs = nn1_posteriors(X[keep], y[keep], X[i : i + 1], masks)[:, 0, :]
        p_true[:, i] = probs[:, y[i]]
        correct[:, i] = probs.argmax(axis=1) == y[i]
    return correct, p_true


def loo_ldc(X, y, ridge=LDC_RIDGE):
    """(correct, p_true) per candidate and left-out row: arrays (c, n) for
    LDC on candidate column stacks X of shape (c, n, k)."""
    b, n, _ = X.shape
    correct = np.empty((b, n), dtype=bool)
    p_true = np.empty((b, n))
    for i in range(n):
        keep = np.arange(n) != i
        probs = ldc_posteriors(X[:, keep], y[keep], X[:, i : i + 1], ridge)[:, 0, :]
        p_true[:, i] = probs[:, y[i]]
        correct[:, i] = probs.argmax(axis=1) == y[i]
    return correct, p_true


def estimates(tag, probe_X, probe_y, cols, hold_X=None, hold_y=None) -> dict:
    """Resubstitution, LOO, sLOO and (with holdout rows) holdout error of
    NN1 or LDC on the columns ``cols``."""
    cols = np.asarray(cols, dtype=np.intp)
    Xp = probe_X[:, cols]
    if tag == "NN1":
        mask = np.ones((1, len(cols)))
        correct, p_true = (a[0] for a in loo_nn1(Xp, probe_y, mask))
        fit_predict = lambda X_test: nn1_posteriors(Xp, probe_y, X_test, mask)[0]  # noqa: E731
    elif tag == "LDC":
        correct, p_true = (a[0] for a in loo_ldc(Xp[None], probe_y))
        fit_predict = lambda X_test: ldc_posteriors(Xp[None], probe_y, X_test[None])[0]  # noqa: E731
    else:
        raise ValueError(f"no reference implementation for {tag}")
    out = {
        "resub": float(np.mean(fit_predict(Xp).argmax(axis=1) != probe_y)),
        "loo": float(np.mean(~correct)),
        "sloo": float(np.mean(1.0 - p_true)),
    }
    if hold_X is not None:
        out["holdout"] = float(np.mean(fit_predict(hold_X[:, cols]).argmax(axis=1) != hold_y))
    return out


def exhaustive_masks(pool_size: int) -> np.ndarray:
    """All 2^pool_size column masks; row ``mask`` has bit j set for column j."""
    codes = np.arange(1 << pool_size)
    return (codes[:, None] >> np.arange(pool_size)[None, :]) & 1


def exhaustive_sloo(tag, X, y, pool) -> np.ndarray:
    """sLOO of every subset of ``pool`` (index = bit mask over pool order)."""
    masks = exhaustive_masks(len(pool))
    Xp = X[:, list(pool)]
    if tag == "NN1":
        _, p_true = loo_nn1(Xp, y, masks)
        return np.mean(1.0 - p_true, axis=1)
    if tag == "LDC":
        values = np.empty(len(masks))
        sizes = masks.sum(axis=1)
        for k in np.unique(sizes):
            group = np.flatnonzero(sizes == k)
            stack = np.stack([Xp[:, masks[g].astype(bool)] for g in group])
            values[group] = np.mean(1.0 - loo_ldc(stack, y)[1], axis=1)
        return values
    raise ValueError(f"no reference implementation for {tag}")


def svm_kkt(state, X_train, y_train, c):
    """(KKT gap, support-vector share) of an SVM trained on X_train, y_train.

    ``state`` is the model's ("svm", support vectors, alpha*y, bias, gamma);
    label index 1 is the positive class.  The gap is the largest violation
    over the maximal violating pair, the quantity SMO drives below ``tol``.
    """
    _, sv, coef, _, gamma = state
    signs = np.where(y_train == 1, 1.0, -1.0)
    if gamma is None:
        K = X_train @ sv.T
    else:
        K = np.exp(-gamma * ((X_train[:, None, :] - sv[None, :, :]) ** 2).sum(axis=2))
    f = K @ coef
    alphas = np.zeros(len(X_train))
    for row, a in zip(sv, np.abs(coef)):
        alphas[(X_train == row).all(axis=1)] = a
    viol = signs - f
    up = (signs > 0) & (alphas < c) | (signs < 0) & (alphas > 0)
    low = (signs < 0) & (alphas < c) | (signs > 0) & (alphas > 0)
    gap = float(viol[up].max() - viol[low].min()) if up.any() and low.any() else 0.0
    return gap, float(np.mean(alphas > 0))
