"""Selection schemes: map a ranked feature list to one chosen subset.

Every scheme scores candidate subsets by the smoothed leave-one-out error
of the target classifier on the probe.  Fixed evaluation budgets:

  ALL, TOP3, TOP10, TOP20   1 evaluation (no search)
  BEST3                     all 1140 triples from the top 20
  EX10                      all 1024 subsets of the top 10 (empty included)
  RND20                     1024 random masks over the top 20, p=0.5 each

Ties at the minimum criterion are resolved to the smallest cardinality,
then by one uniform draw from the selection seed stream.  Candidate
criterion values may be cached across calls that share (classifier,
probe, seed): the cache never changes results, only avoids re-training.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .classifiers import _coerce_kind
from .dataset import Dataset, FeatureSubset
from .estimators import ErrorEstimate, smoothed_loo_value
from .rankers import RankedList

SELECTOR_TAGS = ("ALL", "TOP3", "TOP10", "TOP20", "BEST3", "EX10", "RND20")

_BUDGETS = {"ALL": 1, "TOP3": 1, "TOP10": 1, "TOP20": 1, "BEST3": 1140, "EX10": 1024, "RND20": 1024}
_POOLS = {"TOP3": 3, "TOP10": 10, "TOP20": 20, "BEST3": 20, "EX10": 10, "RND20": 20}


@dataclass(frozen=True)
class SelectionScheme:
    tag: str

    def __post_init__(self):
        if self.tag not in SELECTOR_TAGS:
            raise ValueError(f"unknown selector tag {self.tag!r}; expected one of {SELECTOR_TAGS}")

    @property
    def budget(self) -> int:
        return _BUDGETS[self.tag]

    @property
    def pool_size(self) -> int | None:
        return _POOLS.get(self.tag)


def selection_scheme(tag) -> SelectionScheme:
    if isinstance(tag, SelectionScheme):
        return tag
    return SelectionScheme(str(tag))


@dataclass(frozen=True)
class SelectionResult:
    """Winner of a selection run plus its bookkeeping.

    ``evaluations`` equals the scheme budget (cache hits included);
    ``candidates_tied`` counts evaluated candidates at the minimum.
    """

    subset: FeatureSubset
    criterion: ErrorEstimate
    evaluations: int
    candidates_tied: int


def _candidate_subsets(scheme: SelectionScheme, ranked: RankedList | None, n_features: int, rng):
    """Candidate subsets (tuples of original feature indices) in budget order."""
    tag = scheme.tag
    if tag == "ALL":
        return [tuple(range(n_features))]
    if ranked is None:
        raise ValueError(f"scheme {tag} needs a ranked feature list")
    need = scheme.pool_size
    if len(ranked) < need:
        raise ValueError(f"scheme {tag} needs at least {need} ranked features, got {len(ranked)}")
    pool = ranked.indices[:need]
    if tag in ("TOP3", "TOP10", "TOP20"):
        return [pool]
    if tag == "BEST3":
        return [combo for combo in combinations(pool, 3)]
    if tag == "EX10":
        return [
            tuple(pool[j] for j in range(need) if mask >> j & 1)
            for mask in range(1 << need)
        ]
    # RND20: independent Bernoulli masks; repeats are allowed
    draws = rng.random((scheme.budget, need)) < 0.5
    return [tuple(np.asarray(pool)[row]) for row in draws]


def select(scheme, ranked: RankedList | None, kind, probe: Dataset, seed: int, cache: dict | None = None) -> SelectionResult:
    """Run one selection scheme and return the tie-resolved winner."""
    scheme = selection_scheme(scheme)
    kind = _coerce_kind(kind)
    if cache is None:
        cache = {}
    rng = np.random.default_rng(seed)
    candidates = _candidate_subsets(scheme, ranked, probe.n_features, rng)
    assert len(candidates) == scheme.budget
    X = probe.features
    y = probe.label_indices
    values = np.empty(len(candidates))
    for ordinal, cand in enumerate(candidates):
        # cache entries are scoped to one live probe object
        key = (id(probe), kind.tag, kind.hyperparams, seed, cand)
        value = cache.get(key)
        if value is None:
            value = smoothed_loo_value(kind, X[:, np.asarray(cand, dtype=np.intp)], y, seed)
            cache[key] = value
        values[ordinal] = value
    best = float(values.min())
    return SelectionResult(
        subset=FeatureSubset(candidates[_resolve_best(values, candidates, rng)]),
        criterion=ErrorEstimate(value=best, kind="SLOO", n_evaluations=probe.n_instances),
        evaluations=len(candidates),
        candidates_tied=int(np.count_nonzero(values == best)),
    )


def _resolve_best(values: np.ndarray, candidates, rng) -> int:
    """Index of the winning candidate: the minimum of ``values``, ties to the
    smallest cardinality, then one draw among the distinct tied candidates."""
    tied = [candidates[i] for i in np.flatnonzero(values == values.min())]
    min_card = min(len(c) for c in tied)
    shortlist = list(dict.fromkeys(c for c in tied if len(c) == min_card))
    winner = shortlist[0] if len(shortlist) == 1 else shortlist[int(rng.integers(len(shortlist)))]
    return candidates.index(winner)
