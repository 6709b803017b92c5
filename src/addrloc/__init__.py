"""Locality analysis and cache replacement simulation for address reference traces.

The pipeline: ingest or generate a trace (`trace`, `synth`), reduce it to
its destination reference string, characterize locality (`locality`),
simulate replacement policies over capacity sweeps (`cachesim`), and turn
miss ratios into normalized lookup times (`searchcost`).  The `addrloc`
console script fronts all of it.
"""

from .cachesim import (
    POLICIES,
    CacheStats,
    MissCurve,
    lru_curve_from_distances,
    simulate,
    sweep,
)
from .locality import (
    ConcentrationCurve,
    RunLengthHistogram,
    StackDistanceHistogram,
    WorkingSetReport,
    concentration_curve,
    run_lengths,
    stack_distances,
    working_set,
)
from .searchcost import (
    SearchTimeCurve,
    SearchTimePoint,
    binary_search_cost,
    constant_cost,
    normalized_search_time,
    optimal_cache_size,
    search_time_curve,
)
from .synth import (
    Cyclic,
    GeneratorSpec,
    Interleave,
    Irm,
    LruStackModel,
    UniformIrm,
    generate,
)
from .trace import (
    InternTable,
    Trace,
    TraceOrderError,
    TraceParseError,
    TraceSummary,
    parse_trace,
    read_trace,
    save_trace,
    split_by_protocol,
    summarize,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "POLICIES",
    "CacheStats",
    "ConcentrationCurve",
    "Cyclic",
    "GeneratorSpec",
    "Interleave",
    "InternTable",
    "Irm",
    "LruStackModel",
    "MissCurve",
    "RunLengthHistogram",
    "SearchTimeCurve",
    "SearchTimePoint",
    "StackDistanceHistogram",
    "Trace",
    "TraceOrderError",
    "TraceParseError",
    "TraceSummary",
    "UniformIrm",
    "WorkingSetReport",
    "binary_search_cost",
    "concentration_curve",
    "constant_cost",
    "generate",
    "lru_curve_from_distances",
    "normalized_search_time",
    "optimal_cache_size",
    "parse_trace",
    "read_trace",
    "run_lengths",
    "save_trace",
    "search_time_curve",
    "simulate",
    "split_by_protocol",
    "stack_distances",
    "summarize",
    "sweep",
    "working_set",
    "write_trace",
]
