"""DiCE — the paper's primary contribution.

The pieces map one-to-one onto Figure 2 of the paper:

1. the orchestrator *chooses an explorer and triggers snapshot creation*
   (:mod:`orchestrator`);
2. the snapshot layer *establishes a consistent shadow snapshot of local
   node checkpoints* (:mod:`checkpoint`, :mod:`snapshot` — a
   Chandy–Lamport marker protocol over the live network);
3. the explorer *explores input k over cloned snapshot k*
   (:mod:`explorer`, driving :mod:`repro.concolic`);
4. property checkers evaluate desired-behaviour properties over each
   explored clone, exchanging only narrow check results across domains
   (:mod:`properties`, :mod:`sharing`), and violations become
   :class:`~repro.core.faultclass.FaultReport` objects
   (:mod:`faultclass`).

:mod:`live` wraps a network of BGP routers as "the deployed system"
DiCE runs alongside.  :mod:`parallel` shards step 3's independent
node-exploration sessions across worker slots and :mod:`remote` puts
those slots on long-lived worker daemons over TCP (or an in-process
loopback), without changing any campaign result.  :mod:`pipeline`
takes step 2's snapshot captures in the campaign's fixed order, each
when the campaign asks for it.
"""

from repro.core.checkpoint import NodeCheckpoint, checkpoint_size
from repro.core.snapshot import Snapshot, SnapshotCoordinator
from repro.core.faultclass import (
    FAULT_OPERATOR_MISTAKE,
    FAULT_POLICY_CONFLICT,
    FAULT_PROGRAMMING_ERROR,
    FaultReport,
)
from repro.core.properties import CheckContext, Property, Violation
from repro.core.sharing import SharingEndpoint, SharingRegistry
from repro.core.explorer import ExplorationConfig, Explorer, NodeExplorationReport
from repro.core.orchestrator import CampaignResult, DiceOrchestrator, OrchestratorConfig
from repro.core.parallel import (
    ExplorationTask,
    ParallelCampaignEngine,
    TaskOutcome,
    resolve_workers,
    run_task,
)
from repro.core.pipeline import (
    CaptureRequest,
    CapturedSnapshot,
    SnapshotPipeline,
    plan_captures,
)
from repro.core.remote import (
    LoopbackTransport,
    RemoteWorkerError,
    SocketTransport,
    WorkerServer,
    serve_worker,
)
from repro.core.live import LiveSystem
from repro.core.offline import OfflineParserTester, OfflineReport
from repro.core.reporting import campaign_to_json, save_campaign

__all__ = [
    "NodeCheckpoint",
    "checkpoint_size",
    "Snapshot",
    "SnapshotCoordinator",
    "FaultReport",
    "FAULT_PROGRAMMING_ERROR",
    "FAULT_POLICY_CONFLICT",
    "FAULT_OPERATOR_MISTAKE",
    "Property",
    "Violation",
    "CheckContext",
    "SharingEndpoint",
    "SharingRegistry",
    "Explorer",
    "ExplorationConfig",
    "NodeExplorationReport",
    "DiceOrchestrator",
    "OrchestratorConfig",
    "CampaignResult",
    "ExplorationTask",
    "TaskOutcome",
    "ParallelCampaignEngine",
    "run_task",
    "resolve_workers",
    "LoopbackTransport",
    "SocketTransport",
    "WorkerServer",
    "RemoteWorkerError",
    "serve_worker",
    "CaptureRequest",
    "CapturedSnapshot",
    "SnapshotPipeline",
    "plan_captures",
    "LiveSystem",
    "OfflineParserTester",
    "OfflineReport",
    "campaign_to_json",
    "save_campaign",
]
