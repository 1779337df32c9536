"""Lattice combination toolkit.

Combines an NMT translation lattice (with UNK placeholders) and a hiero
translation lattice by finding the cheapest typed edit-distance
alignment of an NMT path with a hiero path, searched directly over
pairs of lattice states; the combined translation is the NMT hypothesis
with each UNK filled from the aligned hiero words.  The edit-distance
flower transducers, composition and shortest path remain available as
the reference construction of the same optimum.
"""

from .algorithms import (
    PathWitness,
    compose,
    connect,
    nbest,
    prune_to_node_budget,
    shortest_path,
)
from .editfst import (
    build_modified_edit_fst,
    build_standard_edit_fst,
    edit_weight,
    expand_unk_runs,
)
from .errors import ContractError, FormatError, LatcombError, NoPathError
from .fst import (
    EPSILON,
    UNK,
    Arc,
    SymbolTable,
    Wfst,
    count_paths,
    is_acyclic,
    validate,
)
from .pipeline import (
    CombinationParams,
    CombinationResult,
    CorpusReport,
    EditStats,
    combine,
    corpus_report,
)
from .semiring import (
    EDIT_COUNT,
    HIERO_SCORE,
    NMT_SCORE,
    ONE,
    SUB_COUNT,
    UNK_EXT_COUNT,
    ZERO,
    FeatureWeight,
    ParamVector,
    format_weight,
    parse_weight,
    plus,
    scalarize,
    times,
    weight,
)

__version__ = "0.1.0"
