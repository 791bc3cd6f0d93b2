"""Gradual-mechanism verification toolkit.

Models dynamic game forms in which agents progressively refine reports of
their private types, checks dominance of truth-telling and its reaction-based
characterizations, rewrites trees through the basic transformations, and
generates the standard auction and trading-cycles mechanisms.
"""

from .prefs import ScfTable, TypeModel, WeakOrder, is_strategy_proof
from .gameform import (InfoSet, Mechanism, MechanismError, build_mechanism,
                       implemented_scf, implements, is_static, make_step,
                       mechanisms_equal, siblings_same_action, validate)
from .strategies import (all_strategies, common_strategy_exists,
                         consistent_profile_pairs, play, strategy_space_size,
                         truthful_profile, truthful_terminal,
                         unconditional_strategy)
from .checkers import Verdict, Witness, is_ic, is_irp, is_rp, verify_witness
from .transforms import (ChainStep, Coalesce, Illuminate, Merge, ReductionChain,
                         Split, Uncoalesce, Unsplit, apply_coalesce,
                         apply_illuminate, apply_merge, apply_split,
                         apply_transformation, apply_uncoalesce, apply_unsplit,
                         find_opportunities, is_incentive_preserving,
                         iter_opportunities, reduce_to_direct, theorem1_verdict)
from .generators import (all_priority_structures, auction_payoff, build_gstar,
                         build_rda, direct_mechanism,
                         example1_mechanism, example2_base_and_illumination,
                         matching_model, random_transformed_mechanism,
                         second_price_scf, serial_dictatorship_pair,
                         serial_dictatorship_scf, ttc_scf, voting_examples,
                         voting_model_and_scf)

__all__ = [name for name in dir() if not name.startswith("_")]
