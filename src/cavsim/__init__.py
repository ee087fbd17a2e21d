"""Open-system simulator for a two-level atom crossing two lossy dispersive
cavities and a Ramsey zone, tracking pairwise entanglement of atom and fields.
"""

import os

# One OpenBLAS thread unless the caller set a count, before numpy loads OpenBLAS:
# dense results move in the last bits with the thread count (up to 1.9e-14), so
# unpinned `--backend dense` CSV bytes would depend on the host.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .analytic import (
    branch_amplitudes,
    coherence_factor,
    concurrence_stage1,
    rho_stage1,
)
from .entanglement import (
    EffectiveQubitReduction,
    PairwiseConcurrences,
    effective_two_qubit,
    monogamy_residual,
    pairwise_concurrences,
    wootters_concurrence,
)
from .evolution import (
    BranchState,
    ConcurrenceRecord,
    Scenario,
    StageKind,
    Trajectory,
    branch_run,
    default_truncation,
    dispersive_validity,
    dissipative_map,
    initial_density,
    ramsey_unitary,
    run_scenario,
    stage_step,
)
from .exceptions import (
    ConfigError,
    NonPhysicalState,
    StepUnderflow,
    TruncationTooSmall,
    UnsupportedInitialState,
)
from .hilbert import (
    DensityMatrix,
    SubsystemLayout,
    coherent_overlap,
    mean_photon_number,
    partial_trace,
    photon_number_distribution,
    standard_layout,
    trace_distance,
)
from .lindblad import run_oracle

__version__ = "0.1.0"
