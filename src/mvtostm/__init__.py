"""Multiversion timestamp-ordered STM with a history opacity checker.

The package splits into a runtime and an analysis half. The runtime
(core, gc, locks) executes transactions against versioned shared
objects: reads never block or abort, update commits validate against
younger readers, and old versions are collected once no transaction can
reach them. The analysis half (history, checker, harness) records what
the runtime did as an event history and decides opacity, either for a
fixed per-object version order or by exhaustive search over all orders.
"""

from .checker import (
    DEFAULT_BUDGET,
    OpacityGraph,
    Verdict,
    certify_text,
    check_auto,
    check_brute_force,
    check_with_order,
    committed_writes,
    equivalent,
    illegal_read,
    invalid_read,
    is_t_sequential,
    real_time_pairs,
    sequential_order,
    serialization_from,
    timestamp_order,
    topological_order,
)
from .core import (
    ABORTED,
    COMMITTED,
    LIVE,
    Registry,
    TObject,
    Transaction,
    VersionTuple,
)
from .errors import (
    ConfigError,
    HistoryFormatError,
    InvariantViolation,
    ReplayError,
    StmError,
    UsageError,
)
from .gc import collect
from .harness import (
    RunReport,
    WorkloadConfig,
    encode_value,
    parse_script,
    replay,
    run,
    thread_script,
)
from .history import (
    ABORT,
    BEGIN,
    COMMIT,
    READ,
    WRITE,
    Event,
    History,
    Recorder,
    VersionNote,
    parse,
    well_formedness_violation,
)
from .locks import FairLock, LockOrderMonitor

__version__ = "0.1.0"

__all__ = [
    "ABORT",
    "ABORTED",
    "BEGIN",
    "COMMIT",
    "COMMITTED",
    "ConfigError",
    "DEFAULT_BUDGET",
    "Event",
    "FairLock",
    "History",
    "HistoryFormatError",
    "InvariantViolation",
    "LIVE",
    "LockOrderMonitor",
    "OpacityGraph",
    "READ",
    "Recorder",
    "Registry",
    "ReplayError",
    "RunReport",
    "StmError",
    "TObject",
    "Transaction",
    "UsageError",
    "Verdict",
    "VersionNote",
    "VersionTuple",
    "WRITE",
    "WorkloadConfig",
    "certify_text",
    "check_auto",
    "check_brute_force",
    "check_with_order",
    "collect",
    "committed_writes",
    "encode_value",
    "equivalent",
    "illegal_read",
    "invalid_read",
    "is_t_sequential",
    "parse",
    "parse_script",
    "real_time_pairs",
    "replay",
    "run",
    "sequential_order",
    "serialization_from",
    "thread_script",
    "timestamp_order",
    "topological_order",
    "well_formedness_violation",
]
