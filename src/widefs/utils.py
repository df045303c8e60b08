"""Shared helpers: seed derivation, canonical row ordering, local labels, entropy."""

from __future__ import annotations

import hashlib
import math

import numpy as np

MASK64 = (1 << 64) - 1
_LOG2 = math.log(2.0)


def entropy_bits(counts: np.ndarray) -> np.ndarray:
    """Entropy in bits from count vectors; last axis holds the categories."""
    counts = np.asarray(counts, dtype=np.float64)
    totals = counts.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(totals > 0, counts / np.maximum(totals, 1), 0.0)
        terms = np.where(p > 0, p * np.log(p), 0.0)
    return -terms.sum(axis=-1) / _LOG2


def stable_seed(*parts) -> int:
    """Derive a 64-bit seed from arbitrary string/int parts.

    Uses SHA-256 of the '|'-joined textual parts, so the mapping is stable
    across processes, platforms and releases (unlike ``hash()``).
    """
    text = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & MASK64


def canonical_order(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices that sort rows lexicographically by features, then label.

    Training routines reorder their input through this so that fitted
    models (including ones with internal RNG consumption, e.g. bootstrap
    forests) are invariant to row permutations of the training data.  A
    stack of matrices (..., n, k) gets one row order per matrix.
    """
    keys = [np.broadcast_to(y, X.shape[:-1])] + [X[..., j] for j in range(X.shape[-1] - 1, -1, -1)]
    return np.lexsort(keys, axis=-1)


def local_labels(y: np.ndarray):
    """Distinct values of ``y`` (ascending) and each row's position among them."""
    classes = np.unique(y)
    return classes, np.searchsorted(classes, y)
