"""Weight-adaptation optimization for SIS epidemic networks."""
from .coevolve import (
    C3Config,
    optimize_subcomponent,
    random_grouping,
    run_c3,
    run_nsde,
)
from .de_core import DEConfig, Population, nsde_generation
from .dynamics import (
    EpidemicParams,
    IntegrationError,
    decision_dimension,
    decode_candidate,
    integrate,
    make_batch_evaluator,
    objective_value,
)
from .eps_constraint import EpsilonSchedule, better_than
from .graph import generate_ba, spectral_radius
from .harness import ConfigError, ExperimentConfig, load_network, run_experiment

__version__ = "0.1.0"
