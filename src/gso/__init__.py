"""Exact toolkit for connected and monotone mixed graph searching."""

__version__ = "0.1.0"

from .graphs import (
    Graph,
    RootedGraph,
    Part,
    contract_edge,
    contract_edge_rooted,
    doubly_rooted,
    enhance,
    glue,
    rev,
)
from .canon import (
    canonical_graph,
    certificate,
    is_isomorphic,
    rooted_certificate,
    unique,
)
from .gio import (
    Graph6Error,
    graph6_decode,
    graph6_encode,
    rooted_from_json,
    rooted_to_json,
)
from .simulate import Move, Trace, is_complete, is_monotone, simulate, width
from .expansions import (
    Expansion,
    InvalidExpansion,
    expansion_cost,
    expansion_to_strategy,
    strategy_to_expansion,
    validate_expansion,
)
from .contractions import (
    ContractionWitness,
    contains_any,
    is_contraction,
    is_minor,
    is_outerplanar,
    proper_contractions,
)
from .blocks import Block, BlockDecomposition, Face, blocks_and_cuts
from .solvers import (
    SolveResult,
    cmms_decide,
    cmms_value,
    cmp_decide,
    cmp_plain,
    cmp_value,
    cms_decide,
    cms_value,
    mp_decide,
    mp_value,
    ms_value,
    rooted_game_value,
    solve_game,
)
from .gen import connected_graphs
from .obstructions import (
    Branch,
    branch_count,
    branch_set,
    fan_check_solver,
    fan_check_structural,
    glue_family_at_root,
    is_obstruction,
    mine_branch_base,
    mine_fan_base,
    mine_obstructions,
    obr_count,
    obr_set,
    verify_obr,
)
from .recognizer import (
    SpinePart,
    SpineStructure,
    decide_cmms_le_2,
    label_block,
    spine_degree,
    spine_structure,
)
