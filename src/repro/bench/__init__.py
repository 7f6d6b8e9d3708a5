"""Performance benchmark harness (``repro bench``).

Runs the fixed serial-vs-parallel x detector x kernel matrix over a fig8-scale workload and emits ``BENCH_<label>.json`` —
the artifact that seeds the repo's perf trajectory and backs the CI
regression gate.
"""

from .harness import (
    KERNEL_SPEEDUP_FLOOR,
    BenchConfig,
    check_against,
    load_bench,
    run_bench,
    save_bench,
)
from .recovery import RecoveryBenchConfig, run_recovery_bench
from .service import ServiceBenchConfig, run_service_bench
from .streaming import StreamBenchConfig, run_stream_bench

__all__ = [
    "BenchConfig",
    "KERNEL_SPEEDUP_FLOOR",
    "RecoveryBenchConfig",
    "ServiceBenchConfig",
    "StreamBenchConfig",
    "run_bench",
    "run_recovery_bench",
    "run_service_bench",
    "run_stream_bench",
    "check_against",
    "save_bench",
    "load_bench",
]
