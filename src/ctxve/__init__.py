"""Exact inference for discrete belief networks that exploits
context-specific independence.

Conditional probabilities are held as confactors (context + table pairs);
three interchangeable engines answer posterior queries: plain tabular
variable elimination, contextual variable elimination with absorption, and
tree-based variable elimination over grouped confactors.  Structure tools
compress dense CPTs into contextual families and generate random contextual
networks; the bench module differentially tests and times the engines.
"""

from .confactor import (
    Confactor,
    count_split_pieces,
    split_on_context,
    value_at,
)
from .counters import CostCounters, EliminationRecord
from .engine_cve import (
    ContextualVE,
    cve_query,
    incorporate_evidence,
    sum_out_body_occurrences,
)
from .engine_tve import GroupedFactor, TreeVE, tve_multiply, tve_query
from .engine_ve import TabularVE, ve_query
from .errors import (
    CtxveError,
    IncompatibleContextsError,
    InvariantError,
    NetworkFormatError,
    ZeroEvidenceError,
)
from .bench import ENGINES, BenchRecord, enum_query, run_campaign
from .network import (
    ContextualBeliefNetwork,
    from_skeleton,
    from_tabular_cpt,
    joint_table,
    load,
    save,
)
from .orders import Engine, min_size_order
from .posterior import Posterior
from .rng import SplitMix64
from .structure import (
    CompressionConfig,
    GenConfig,
    compress_family,
    compress_network,
    generate_biased_cbn,
    generate_random_cbn,
)
from .tables import (
    Context,
    DomainCatalog,
    Table,
    add_tables,
    compatible,
    context_union,
    product,
    set_table,
    sum_out,
)

__version__ = "0.1.0"

__all__ = [
    "ENGINES",
    "BenchRecord",
    "Confactor",
    "Context",
    "ContextualBeliefNetwork",
    "ContextualVE",
    "CompressionConfig",
    "CostCounters",
    "CtxveError",
    "DomainCatalog",
    "EliminationRecord",
    "Engine",
    "GenConfig",
    "GroupedFactor",
    "IncompatibleContextsError",
    "InvariantError",
    "NetworkFormatError",
    "Posterior",
    "SplitMix64",
    "Table",
    "TabularVE",
    "TreeVE",
    "ZeroEvidenceError",
    "add_tables",
    "compatible",
    "compress_family",
    "compress_network",
    "context_union",
    "count_split_pieces",
    "cve_query",
    "enum_query",
    "from_skeleton",
    "from_tabular_cpt",
    "generate_biased_cbn",
    "generate_random_cbn",
    "incorporate_evidence",
    "joint_table",
    "load",
    "min_size_order",
    "product",
    "run_campaign",
    "save",
    "set_table",
    "split_on_context",
    "sum_out",
    "sum_out_body_occurrences",
    "tve_multiply",
    "tve_query",
    "value_at",
    "ve_query",
]
