"""Toolkit for linear delay differential-algebraic equations.

Decomposes the pencil (E, A), classifies discontinuity propagation,
checks history admissibility and splicing, solves by the method of steps
with a derivative-jump ledger, reformulates hidden delays, and assesses
exponential stability via the spectral abscissa.
"""

from .errors import (
    CollocationSingular,
    DdaeKitError,
    DecompositionFailure,
    DimensionMismatch,
    InconsistentRestart,
    MalformedProblem,
    NotAdmissible,
    NotSmoothingType,
    OutOfDomain,
    SingularPencil,
)
from .pencil import (
    MatrixPencil,
    QuasiWeierstrassForm,
    RegularityVerdict,
    check_regularity,
    compute_qwf,
    nilpotency_index,
    wong_sequences,
)
from .piecewise import CHEBYSHEV, MONOMIAL, PiecewisePolynomial
from .model import (
    DdaeSystem,
    SplitCoefficients,
    build_split,
    split_matrices,
)
from .classify import (
    BackwardSystem,
    ClassificationReport,
    LegacyClass,
    LegacyKind,
    PropagationClass,
    PropagationKind,
    build_backward_system,
    classify,
    classify_legacy,
    classify_matrices,
    classify_propagation,
)
from .history import (
    Index3Report,
    SplicingReport,
    check_admissible,
    check_index3_uniqueness,
    construct_probe_history,
    splicing_report,
)
from .solver import (
    JumpLedger,
    LedgerEntry,
    SegmentSolution,
    SolverConfig,
    Trajectory,
    detect_jumps,
    method_of_steps,
    solve_segment,
)
from .reform import (
    HiddenDelayExpansion,
    embed_neutral_dde,
    embed_pure_delay,
    expand_hidden_delays,
    hidden_delay_forcing,
)
from .stability import (
    SearchBox,
    StabilityReport,
    StabilityVerdict,
    assess_exponential_stability,
    spectral_abscissa,
)
from .problemfile import (
    dump_problem,
    load_problem,
    problem_from_dict,
    problem_to_dict,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
