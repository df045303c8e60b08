"""widefs: audit toolkit for feature selection on wide datasets.

Library surface for sizing feature-comparison samples, estimating
classification error from tiny probes, ranking and selecting features,
benchmarking classifier x ranker x selector combinations, and emitting
rank-analysis reports.
"""

__version__ = "0.1.0"  # before the submodules: harness stamps it into resume sidecars

from .dataset import (
    Dataset,
    FeatureSubset,
    SplitPair,
    generate_classifier_dependent_pair,
    generate_gaussian_dataset,
    generate_spectral_dataset,
    load_csv,
    restrict_to_top2_classes,
    save_csv,
    stratified_split,
)
from .samplesize import (
    McNemarPlan,
    SmoothedPlan,
    chi2_inv_cdf,
    mcnemar_sample_size,
    normal_inv_cdf,
    sample_size_curve,
    smoothed_sample_size,
)
from .classifiers import (
    CLASSIFIER_TAGS,
    ClassifierKind,
    TrainedModel,
    classifier_kind,
    predict_label,
    predict_proba,
    train,
)
from .rankers import RANKER_TAGS, RankedList, rank_features, top_k
from .estimators import (
    ErrorEstimate,
    holdout_true_error,
    loo_error,
    proper_rloo_error,
    resubstitution_error,
)
from .selectors import SELECTOR_TAGS, SelectionResult, SelectionScheme, select, selection_scheme
from . import harness, report, stats

__all__ = [name for name in dir() if not name.startswith("_")]
