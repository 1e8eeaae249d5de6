"""Multi-tenant job management over the simulated cluster.

Every job's map attempts run through one scheduler,
:class:`~repro.mapreduce.scheduler.SlotScheduler`: locality-aware
placement, retries with backoff, blacklisting, node-loss and map-output
re-execution, and progress-based speculation
(:class:`~repro.mapreduce.scheduler.SpeculationConfig`).  A single job
(:func:`repro.mapreduce.runner.run_job`) is one request alone on that
loop; this package is the multi-tenant layer above it:

- :mod:`repro.cluster.config` — queues with guaranteed capacities,
  tenants with fair-share weights, admission bounds and slot quotas,
- :mod:`repro.cluster.manager` — the resource manager sharing one slot
  pool between concurrent jobs, with admission control (including
  deadline-aware shedding), hierarchical fair share, preemption and a
  FIFO baseline,
- :mod:`repro.cluster.wal` — the write-ahead journal and crash-resume
  replay (:func:`~repro.cluster.wal.resume_from_wal`),
- :mod:`repro.cluster.traffic` — seeded open-loop Poisson traffic of
  mixed crawl/analytics/point-query jobs,
- :mod:`repro.cluster.report` — per-tenant p50/p95/p99 job latency and
  slot-utilization reporting.
"""

from repro.mapreduce.scheduler import SpeculationConfig

from repro.cluster.config import (
    ClusterPolicy,
    QueueConfig,
    TenantConfig,
    fifo_variant,
)
from repro.cluster.manager import ClusterManager, JobRequest
from repro.cluster.report import (
    ClusterReport,
    JobOutcome,
    TenantSummary,
    percentile,
)
from repro.cluster.traffic import (
    TrafficProfile,
    TrafficTenant,
    build_filesystem,
    generate_requests,
    make_job,
    run_traffic,
    sample_profile,
)
from repro.cluster.wal import (
    ClusterWAL,
    SimulatedCrash,
    WalDivergence,
    resume_from_wal,
)

__all__ = [
    "ClusterManager",
    "ClusterPolicy",
    "ClusterReport",
    "ClusterWAL",
    "JobOutcome",
    "JobRequest",
    "QueueConfig",
    "SimulatedCrash",
    "SpeculationConfig",
    "TenantConfig",
    "TenantSummary",
    "TrafficProfile",
    "TrafficTenant",
    "WalDivergence",
    "build_filesystem",
    "fifo_variant",
    "generate_requests",
    "make_job",
    "percentile",
    "resume_from_wal",
    "run_traffic",
    "sample_profile",
]
