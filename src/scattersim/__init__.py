"""scattersim: randomized dispersion of oblivious mobile robots.

A library for simulating anonymous, memoryless robot swarms under
semi-synchronous activation, together with the verification machinery
for the dispersion protocol's probability bounds, its self-stabilizing
compositions with gathering and pattern formation, and the coin-free
co-location demonstration.
"""

from .geometry import (
    Point,
    VoronoiCell,
    distance,
    own_cell,
    sample_in_cell,
)
from .world import (
    Capabilities,
    Configuration,
    IDENTITY_FRAME,
    LocalFrame,
    Robot,
    View,
    all_distinct,
    as_configuration,
    build_view,
    multiplicity_points,
    random_frame,
    to_global,
    to_local,
)
from .scheduler import (
    FairnessVerdict,
    SchedulerSpec,
    audit_fairness,
)
from .protocols import (
    DETERMINISTIC_RULES,
    Protocol,
    ProtocolSpec,
    deterministic_rule_step,
    pair_gather_step,
    reference_gather_step,
    reference_pattern_step,
    scatter_step,
    stabilized_gather_step,
    stabilized_pattern_step,
)
from .engine import (
    RecordingSource,
    ReplayVerdict,
    StepOutcome,
    StepRecord,
    Trace,
    load_trace,
    replay,
    run,
    step,
    write_trace,
)
from .analysis import (
    ClosureVerdict,
    ConvergenceStats,
    DecayReport,
    GatherSummary,
    ImpossibilityVerdict,
    SeparationEstimate,
    check_closure,
    estimate_pair_separation,
    gather_stats,
    impossibility_demo,
    verify_decay_bound,
    wilson_interval,
)
from .scenario_text import (
    STOP_RULES,
    Scenario,
    load_scenario,
    parse_scenario_text,
    scenario_digest,
    scenario_from_dict,
    scenario_to_dict,
)

__version__ = "0.1.0"
