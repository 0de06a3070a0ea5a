"""Cooperative multi-agent RL over directed coordination graphs.

Agents coupled through a directed graph learn policies from local
value functions: each agent collects the rewards of exactly the agents
it can reach, and ascends a zeroth-order estimate of its block of the
policy gradient.  The package provides the graph machinery, a
warehouse resource-allocation benchmark, RBF-softmax policies, three
gradient oracles with variance bounds, the distributed training loop
with an audited message bus, an experiment harness, and an empirical
validation suite for the underlying identities.
"""

from .graphs import (
    CoordinationGraph,
    ClusterDecomposition,
    CondensationDag,
    GraphArtifacts,
    LearningGraph,
    ReachabilitySets,
    build_artifacts,
    build_graph,
    check_weak_connectivity,
    cluster_condensation,
    derive_learning_graph,
    reachability,
    strongly_connected_components,
)
from .policy import (
    BlockLayout,
    BoundRbfPolicy,
    PolicyParams,
    RbfPolicy,
    make_centers,
    perturb,
)
from .warehouse import (
    NoiseTrace,
    Rollout,
    WarehouseConfig,
    WarehouseEnv,
    read_rollout_jsonl,
    simulate_rollout,
    write_rollout_jsonl,
)
from .oracles import (
    FLAVORS,
    SCOPES,
    GradientEstimate,
    OracleConfig,
    ResidualState,
    centralized_value,
    one_point,
    one_point_second_moment_bound,
    residual,
    sample_perturbation,
    two_point,
    two_point_second_moment_bound,
    two_point_second_moment_bound_total,
)
from .learner import (
    ALGORITHMS,
    CommunicationViolation,
    EpisodeRecord,
    LearnerConfig,
    MessageBus,
    ScheduleResult,
    TrainResult,
    TrainingDiverged,
    WarehouseEvaluator,
    accuracy_schedule,
    parse_algorithm,
    run_episode,
    schedule_bound_constant,
    train,
)
from .validation import (
    CheckResult,
    SyntheticEvaluator,
    SyntheticObjective,
    check_smoothing_gap,
    dependency_violations,
    empirical_second_moment,
    finite_difference_gradient,
    make_synthetic,
    mc_smoothed_gradient,
    oracle_moments,
    run_validation,
)
from .configio import ConfigError, ExperimentConfig, PolicySettings, load_config
from .experiments import (
    RunSummary,
    read_run_csv,
    run_experiment,
    summarize,
    write_run_csv,
)

__version__ = "0.1.0"
