"""Kochen-Specker ray sets: construction, coloring search, and simulation.

The library builds the parametrized ten-ray forcing gadget, sweeps it into
the chained 117-ray set, decides colorability of orthogonality graphs under
the exactly-one-per-triad / never-two-orthogonal-ones rules, and simulates
Stern-Gerlach ensembles including the value-additivity failure and a
contextual hidden-value model.
"""

__version__ = "0.1.0"

from .gadget import (
    MAX_GADGET_ANGLE,
    MIN_GADGET_ANGLE,
    AdmissiblePairSet,
    AngleRangeError,
    DegenerateParameterError,
    GadgetSet,
    build_gadget,
    enumerate_gadget_assignments,
    gadget_angle,
    gadget_for_angle,
    minimize_gadget_cosine,
    offdiagonal_parameters_for_angle,
    solve_parameter_for_angle,
)
from .ksgraph import (
    DEFAULT_STEP_ANGLE,
    OrthogonalityGapError,
    OrthogonalityGraph,
    RaySet,
    RotationStep,
    ScheduleError,
    assemble_ks_set,
    build_orthogonality_graph,
    dedupe_rays,
    default_schedule,
)
from .linalg import (
    Context,
    NormalizationError,
    Ray3,
    context_for_direction,
    projector_from_vector,
    spin1_overlap,
    spin_half_eigenvectors,
    spin_operator,
    transition_probability_spin_half,
    verify_completion,
)
from .simulate import (
    GENERATOR_NAME,
    EnsembleCounts,
    EnsembleSpec,
    check_additivity_relation,
    empirical_spin_average,
    expected_spin_average,
    run_sequence,
    sample_context_tables,
    vn_continuity_scan,
    vn_value_additivity_failure,
)
from .solver import (
    ChainIntegrityError,
    ChainReport,
    IncompleteAssignmentError,
    SizeLimitError,
    SolverVerdict,
    ValueAssignment,
    check_colorability,
    enumerate_all_colorings,
    forcing_chain_check,
    verify_assignment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
