"""Online packet scheduling with deadlines, predictions, and benchmarks."""

from .core import (
    Instance,
    InfeasibleSelection,
    Job,
    ParseError,
    Schedule,
    canonicalize,
    feasible_at,
    pending_set,
    read_instance_csv,
    schedule_weight,
    validate_schedule,
    write_instance_csv,
)
from .experiments import (
    EmptyDataset,
    ExperimentConfig,
    GeneratorSpec,
    InvalidSchedule,
    MissingPrediction,
    PerturbationSpec,
    ResultRecord,
    competitive_ratio,
    generate,
    ingest_snap_events,
    perturb,
    run_algorithm,
    run_experiment,
)
from .lap import InvalidThreshold, LapSlot, LapTrace, lap_run, local_test
from .offline import (
    TooLarge,
    brute_force_opt,
    opt_schedule,
    prefix_opt_series,
)
from .online import (
    EDF,
    GREEDY,
    MG,
    PHI,
    OnlineStepPolicy,
    edf_alpha_step,
    edf_step,
    greedy_step,
    mg_step,
    run_online,
)
from .prediction import (
    apply_choices,
    blind_follow,
    build_choices,
    prediction_error,
)

__version__ = "0.1.0"
