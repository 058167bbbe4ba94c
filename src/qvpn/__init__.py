"""qVPN resource management: joint path + distillation-strategy selection and
rate allocation for organizations sharing a quantum network."""

from .checks import InputError
from .topology import (
    NodeSpec,
    LinkSpec,
    NetworkGraph,
    TopologyError,
    link_capacity,
    make_link,
    load_topology,
    save_topology,
    engineer_repeaters,
    min_hop_distances,
)
from .quantum_math import (
    BellDiagonalState,
    DistillationStrategy,
    NoiseParams,
    DEFAULT_NOISE,
    OverheadResult,
    werner,
    swap_chain_fidelity,
    purify_step,
    purification_overhead,
    path_overhead_per_link,
    default_strategy_catalog,
    load_strategy_catalog,
    save_strategy_catalog,
)
from .pathfinding import (
    CandidatePath,
    PathFinder,
    WeightScheme,
    yen_k_shortest,
    path_from_nodes,
    build_candidate_set,
    build_candidate_sets,
    baseline_selection,
    nearest_strategy_index,
)
from .workload import (
    Organization,
    UserPair,
    Workload,
    WorkloadError,
    WorkloadParams,
    generate_workload,
    load_workload,
    save_workload,
)
from .allocation_lp import (
    AllocationSolution,
    LinearProgram,
    LpCompiler,
    SolverError,
    lp_backend,
    solve_lp,
    wegr_of_selection,
)
from .ga_optimizer import (
    GaConfig,
    GaProblem,
    GaTrace,
    dynamic_schedule,
    initialize_population,
    evolve,
)
from .rl_optimizer import (
    DivergenceError,
    PolicyNetwork,
    QuotaError,
    RlProblem,
    TrainConfig,
    train,
    sample_action,
    greedy_selection,
    gradient_check,
    save_policy,
    load_policy,
)
from .harness import (
    DegenerateVarianceError,
    FairnessReport,
    Scenario,
    ScenarioResult,
    fairness_report,
    pearson,
    run_scenario,
    save_selection,
    load_selection,
)
from .fixtures import bundled_topology

__version__ = "0.1.0"
