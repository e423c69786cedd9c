"""Vizing-fan recoloring machinery, an exact chromatic-index oracle, and a
verification harness for edge-coloring structure on small graphs."""

from .colorings import Chain, PartialEdgeColoring, are_linked, kempe_swap
from .fans import (
    KiersteadPath,
    Multifan,
    grow_kierstead_path,
    grow_multifan,
    normalize_typical,
    search_maximum_multifan,
    stability_class,
)
from .graphs import (
    SimpleGraph,
    complete,
    cycle,
    degree_profile,
    from_graph6,
    is_core_acyclic,
    light_vertices,
    petersen,
    to_graph6,
)
from .recolor import (
    TauSequence,
    Transcript,
    apply_shifting,
    build_tau_sequence,
    is_avoiding,
    shift,
    witness_tau_item,
)
from .solver import (
    ClassVerdict,
    chromatic_index,
    is_delta_critical,
    is_just_overfull,
    is_overfull,
    overfull_deficiency,
    parity_check,
)
from .theorems import (
    PFan,
    ScanConfig,
    check_conjecture,
    check_theorem,
    check_val,
    grow_pfan,
    scan_corpus,
)

__version__ = "0.1.0"

__all__ = [
    "Chain",
    "ClassVerdict",
    "KiersteadPath",
    "Multifan",
    "PFan",
    "PartialEdgeColoring",
    "ScanConfig",
    "SimpleGraph",
    "TauSequence",
    "Transcript",
    "apply_shifting",
    "are_linked",
    "build_tau_sequence",
    "check_conjecture",
    "check_theorem",
    "check_val",
    "chromatic_index",
    "complete",
    "cycle",
    "degree_profile",
    "from_graph6",
    "grow_kierstead_path",
    "grow_multifan",
    "grow_pfan",
    "is_avoiding",
    "is_core_acyclic",
    "is_delta_critical",
    "is_just_overfull",
    "is_overfull",
    "kempe_swap",
    "light_vertices",
    "normalize_typical",
    "overfull_deficiency",
    "parity_check",
    "petersen",
    "scan_corpus",
    "search_maximum_multifan",
    "shift",
    "stability_class",
    "to_graph6",
    "witness_tau_item",
]
