"""Weight-adaptation optimization for SIS epidemic networks."""
from .baselines import (
    constant_adaptation_ratio,
    constant_adaptation_schedule,
    no_adaptation_schedule,
)
from .coevolve import (
    C3Config,
    GenerationRecord,
    GroupingPlan,
    OptimizationResult,
    grouping_probability,
    optimize_subcomponent,
    random_grouping,
    run_c3,
    run_nsde,
)
from .de_core import (
    Candidate,
    DEConfig,
    Population,
    init_population,
    nsde_generation,
    repair_bounds,
)
from .dynamics import (
    EpidemicParams,
    IntegrationError,
    Trajectory,
    WeightSchedule,
    constraint_value,
    decision_dimension,
    decode_candidate,
    integrate,
    make_batch_evaluator,
    objective_value,
    trace_series,
    write_trajectory_csv,
)
from .eps_constraint import (
    EpsilonSchedule,
    better_than,
    epsilon_at,
    violation_degree,
)
from .graph import (
    Network,
    TopologyStats,
    epidemic_threshold,
    generate_ba,
    load_network,
    network_from_weights,
    save_network,
    spectral_radius,
    topology_stats,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    RunRecord,
    derive_run_seed,
    run_experiment,
)
from .stats import AlgorithmSummary, summarize, wilcoxon_rank_sum

__version__ = "0.1.0"
