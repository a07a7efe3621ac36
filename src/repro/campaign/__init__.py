"""repro.campaign — parallel sweep campaigns with a result cache.

The scheduler + cache layer over the experiment harness:

* :mod:`repro.campaign.spec` — declarative campaign grids with
  deterministic cell IDs;
* :mod:`repro.campaign.executor` — a fork-based executor with retries,
  graceful Ctrl-C draining and progress/ETA;
* :mod:`repro.campaign.supervise` — per-worker process supervision:
  heartbeat sweeps, ``REPRO_CELL_TIMEOUT`` deadlines, dead-worker
  replacement with deterministic requeue and immediate retries at the
  cell's original position;
* :mod:`repro.campaign.store` — a content-addressed result store keyed
  by canonical cell spec + code fingerprint, integrity-checksummed on
  every read (corrupt objects are quarantined, not served); re-running
  a killed campaign over the same store recomputes no completed cell;
* :mod:`repro.campaign.chaos` — fault-injection harness behind
  ``repro chaos`` (worker SIGKILL, hangs, exceptions, store
  corruption — report must stay byte-identical to a clean run);
* :mod:`repro.campaign.runners` — the registry mapping experiment names
  to picklable cell adapters;
* :mod:`repro.campaign.cli` — ``repro campaign run|status|cache``.
"""

from repro.campaign.spec import CampaignSpec, CellSpec
from repro.campaign.store import (ResultStore, StoreStats, VerifyReport,
                                  code_fingerprint)
from repro.campaign.executor import ExecutionReport, execute, default_jobs
from repro.campaign.supervise import Supervisor, SupervisorStats
from repro.campaign.runners import run_cell, runner_names, known_variants
from repro.campaign.cli import run_campaign, campaign_results_dict

__all__ = [
    "CampaignSpec", "CellSpec",
    "ResultStore", "StoreStats", "VerifyReport", "code_fingerprint",
    "ExecutionReport", "execute", "default_jobs",
    "Supervisor", "SupervisorStats",
    "run_cell", "runner_names", "known_variants",
    "run_campaign", "campaign_results_dict",
]
