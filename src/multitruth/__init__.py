"""Multi-truth data fusion: given conflicting (source, item, value)
claims, jointly decide how many values are true per item and which ones.
"""

from .approx import (
    approx_fuse,
    approx_fuse_from_votes,
    bot_vote_count,
    case_one_fixture,
    fixture_from_qualities,
    verify_bound,
    vote_count,
)
from .baselines import accu_fuse, majority_vote, precrec_fuse, twostep_fuse
from .errors import (
    DegenerateEvidenceError,
    FusionError,
    InstanceTooLargeError,
    ParseError,
    UnknownSourceError,
)
from .exact import conditional_prob, exact_fuse, exact_fuse_from_votes
from .index import ClaimIndex, claims_by_item
from .likelihood import (
    CategoryCounts,
    CategoryProbs,
    category_probs,
    joint_likelihood,
    partition_counts,
    source_likelihood,
)
from .model import (
    BOTTOM,
    Claim,
    ClaimSet,
    FusionResult,
    GoldStandard,
    PriorConfig,
    SourceQuality,
    VoteCountFixture,
    beta_at,
    derive_q,
)
from .quality import (
    IterationConfig,
    is_good_source,
    iterate,
    update_accuracy,
    update_precision,
    update_recall,
)
from .synth import SynthConfig, compare, evaluate, generate, truth_count_distribution

__version__ = "0.1.0"

__all__ = [
    "BOTTOM",
    "CategoryCounts",
    "CategoryProbs",
    "Claim",
    "ClaimIndex",
    "ClaimSet",
    "DegenerateEvidenceError",
    "FusionError",
    "FusionResult",
    "GoldStandard",
    "InstanceTooLargeError",
    "IterationConfig",
    "ParseError",
    "PriorConfig",
    "SourceQuality",
    "SynthConfig",
    "UnknownSourceError",
    "VoteCountFixture",
    "accu_fuse",
    "approx_fuse",
    "approx_fuse_from_votes",
    "beta_at",
    "bot_vote_count",
    "case_one_fixture",
    "category_probs",
    "claims_by_item",
    "compare",
    "conditional_prob",
    "derive_q",
    "evaluate",
    "exact_fuse",
    "exact_fuse_from_votes",
    "fixture_from_qualities",
    "generate",
    "is_good_source",
    "iterate",
    "joint_likelihood",
    "majority_vote",
    "partition_counts",
    "precrec_fuse",
    "source_likelihood",
    "truth_count_distribution",
    "twostep_fuse",
    "update_accuracy",
    "update_precision",
    "update_recall",
    "verify_bound",
    "vote_count",
]
