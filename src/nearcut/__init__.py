"""Near-minimum-cut covers and flexible graph connectivity, desk scale.

Exact enumeration is the ground truth: every structural claim the
solvers lean on (crossing-cut capacity patterns, family structure,
decompositions) is checkable, and every approximation guarantee is
measured against branch-and-bound oracles.
"""

from .errors import (
    BudgetError,
    InfeasibleError,
    InputError,
    InvariantError,
    LimitError,
    NearcutError,
    PreconditionError,
)
from .multigraph import (
    CutRecord,
    EdgeRecord,
    Multigraph,
    canonical_mask,
    complement_mask,
    enumerate_cuts_at_most,
    mask_from_nodes,
    min_cut_value,
    nodes_from_mask,
    subgraph,
)
from .cut_structure import (
    CutPart,
    DecompositionResult,
    F2Decomposition,
    PartShape,
    QuotientResult,
    SetFamily,
    Square,
    SquareCase,
    build_square,
    classify_square,
    crosses_strongly,
    decompose_F2_odd,
    decompose_plus_cuts,
    family_quotient,
    is_laminar,
    is_symmetric_proper_crossing,
    is_uncrossable,
    verify_part_shape,
)
from .family_cover import (
    Candidate,
    CoverInstance,
    CoverSolution,
    SolverSlot,
    cover_symmetric_crossing,
    covers,
    exact_min_cover,
    minimal_cover,
    primal_dual_uncrossable_cover,
)
from .augment import (
    AugmentInstance,
    AugmentResult,
    deficient_family,
    implemented_ratio_bound,
    level_family,
    near_min_cuts_cover,
)
from .fgc import (
    FlexInstance,
    FlexSolution,
    enumerate_Fq,
    flex_connected_by_removal,
    is_flex_connected,
    kecss,
    minimum_flex_subgraph,
    solve_fgc,
)
from .harness import (
    GenSpec,
    RatioReport,
    exact_augment,
    exact_fgc,
    generate,
    run_suite,
)
from .io import Instance, load_instance, parse_instance, save_instance

__version__ = "0.1.0"
