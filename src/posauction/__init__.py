"""Computational analysis of position auctions.

Sample bidder preferences from the standard valuation models, encode GFP
and GSP variants as compact action-graph games, enumerate exact pure Nash
equilibria, and compare mechanisms on efficiency, revenue, relevance, and
envy against VCG benchmarks with blocked bootstrap statistics.
"""

from .agg import (ActionGraphGame, ConfigTable, MissingTableEntry, Node,
                  dump_graph, evaluate_profile, size_stats)
from .encoders import (EffectiveBidIndex, EncodingSizeError, encode, encode_gfp,
                       encode_gim_gsp, encode_gsp, effective_bid_index)
from .experiments import (ExperimentConfig, MechanismConfig, describe_instance,
                          preset_config, run_experiment, run_instance)
from .mechanisms import (MechanismSpec, Outcome, apply_weight_rule, bidder_weights,
                         max_clicks, max_welfare, rounded_price, simulate_outcome,
                         vcg)
from .metrics import MetricVector, bounds_for_unsolved, metric_vector, total_envy
from .models import (AuctionSetting, DistributionSpec, DISTRIBUTION_NAMES,
                     GimSetting, SamplingError, normalize_setting, sample_setting,
                     setting_from_json_dict, validate_setting)
from .solver import (EquilibriumSet, enumerate_psne, envy_free_filter,
                     prune_dominated, select)
from .stats import (BootstrapResult, PairRelation, bonferroni, bootstrap_compare,
                    classify_pair, point_intervals)

__version__ = "0.1.0"
