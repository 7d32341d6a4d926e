"""The DiCE orchestrator: the full Figure 2 loop.

A campaign repeats cycles of:

1. **choose explorer and trigger snapshot creation** — explorer nodes are
   taken round-robin (or as configured), and the snapshot coordinator
   runs the marker protocol from that node;
2. **establish consistent shadow snapshot** — the captured cut;
3-5. **explore input k over cloned snapshot k** — the per-node
   :class:`~repro.core.explorer.Explorer` does grammar + concolic input
   generation, one clone per input, property checks per clone.

Violations become :class:`~repro.core.faultclass.FaultReport` objects
stamped with wall-clock time since campaign start — the EXP-FAULTS
time-to-detection measurements fall straight out of a campaign run.

That loop exists once (:meth:`DiceOrchestrator._run_campaign_inner`).
Snapshots are always captured on the loop's own thread, one at a time,
in one fixed order, when the loop asks for them
(:mod:`repro.core.pipeline`) — the live system is singular.  Execution
mode only changes *where* a session runs and what a session *is*, and
each of those is an object the loop is handed, not a loop of its own:

* the **engine** (:mod:`repro.core.parallel`): every session is
  dispatched as tasks on a worker transport — inline in this process
  at ``workers=1`` (the serial reference), local process pools above
  that, or remote worker daemons via ``OrchestratorConfig.transport``
  (:mod:`repro.core.remote`);
* the **session planner**: a session is one
  :class:`~repro.core.parallel.ExplorationTask` — or, with
  ``frontier_shards > 1``, rounds of tasks that each carry one
  :class:`~repro.concolic.frontier.FrontierShard` of it.

The merge is performed in deterministic task order whatever the two
are, so a campaign's fault reports do not depend on the worker count,
on the shard count's placement, or on the dispatch transport.
"""

from __future__ import annotations

import itertools
import pickle
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterator

from repro.concolic.frontier import (
    Frontier,
    FrontierShard,
    ShardPlan,
    plan_round,
    resolve_discipline,
)
from repro.core.explorer import (
    ExplorationConfig,
    Explorer,
    NodeExplorationReport,
    STRATEGY_CONCOLIC,
)
from repro.core.faultclass import FaultReport, first_per_class
from repro.core.live import LiveSystem, bgp_process_factory
from repro.core.parallel import (
    ClaimSpec,
    ExplorationTask,
    ParallelCampaignEngine,
    TaskHandle,
    claims_to_spec,
    resolve_workers,
)
from repro.core.pipeline import (
    CapturedSnapshot,
    SnapshotPipeline,
    plan_captures,
)
from repro.core.properties import PropertySuite
from repro.core.sharing import SharingRegistry
from repro.util.rng import derive_seed


@dataclass
class OrchestratorConfig:
    """Campaign-level knobs.

    Determinism contract: with a fixed ``seed``, the fault reports and
    per-node exploration counters of a campaign are a pure function of
    this config and the live system's state — independent of
    ``workers`` and ``transport``.
    Per-task seeds derive from ``(seed, cycle, node)``, snapshots are
    captured in one fixed serial order, and outcomes merge in task
    order (see :mod:`repro.core.parallel` and
    :mod:`repro.core.pipeline`).
    """

    inputs_per_node: int = 30
    horizon: float = 5.0
    strategy: str = STRATEGY_CONCOLIC
    explorer_nodes: list[str] | None = None  # None = all, sorted
    cycles: int = 1
    snapshot_mode: str = "marker"  # "marker" | "atomic"
    stop_after_first_fault: bool = False
    grammar_seeds: int = 3
    seed: int = 0
    # Simulated seconds the *live* system advances between node
    # explorations, so DiCE observably runs alongside a moving system.
    live_advance: float = 0.5
    # Exploration worker slots: 1 = inline in this process (the default,
    # and the serial reference tests compare against), None = one
    # worker per CPU.
    workers: int | None = 1
    # Where exploration tasks run: "local" (inline / per-slot process
    # pools), "loopback" (the remote wire protocol run in-process, for
    # tests and CI), or "socket" (repro remote-worker daemons at the
    # remote_workers addresses).  Results are transport-independent.
    transport: str = "local"
    # host:port addresses of remote-worker daemons, one worker slot
    # each; required by (and only meaningful for) transport="socket".
    remote_workers: list[str] | None = None
    # Worker slots the campaign may lose before failing: a dead slot's
    # tasks are dispatched again, unchanged, on survivors, so results
    # stay bit-identical to a failure-free run.  None = all but one
    # slot (survive while any slot lives); 0 disables failover (a dead
    # worker fails the campaign).  Exceeding the budget raises
    # WorkerFailoverError naming every dead worker.
    max_worker_failures: int | None = None
    # Escape hatch for the chaos/fault-injection harness (not exposed
    # on the CLI): a zero-argument callable returning the
    # WorkerTransport the campaign engine should dispatch on, taking
    # precedence over `transport`/`remote_workers`.
    transport_factory: Callable | None = None
    # Branch-frontier discipline for concolic exploration — the pop
    # order of a whole session's frontier and of every shard's alike:
    # "bfs" (the SAGE-style generational default), "dfs" or
    # "coverage"; --frontier on the CLI.
    frontier: str = "bfs"
    # Maximum shard tasks per session round; > 1 partitions each
    # session's frontier into shard tasks with work stealing at round
    # barriers.  The shard decomposition is part of the campaign
    # *configuration* — results at a given shard count are identical
    # at any worker count, so workers=1 with the same shard count is
    # the serial reference for sharded runs.  --frontier-shards on the
    # CLI.
    frontier_shards: int = 1
    # Differential-oracle pre-pass: "off", "reference" (pure-python
    # fixpoint oracle), or "bird" (real BIRD daemons in namespaces).
    # When enabled, the live system's converged routes are checked
    # against the oracle before exploration starts, and divergences
    # lead the campaign's fault reports as model_divergence faults;
    # --differential on the CLI.
    differential: str = "off"

    # -- benchmark compatibility --
    # benchmarks/e2e/workloads.py and verify.py still pass this name.
    # Every capture runs on the campaign's own thread when the loop
    # asks for it, so nothing in this package reads it; delete it once
    # the benchmark no longer names it.
    pipeline: bool = True


@dataclass
class CampaignResult:
    """Everything a campaign produced."""

    reports: list[FaultReport] = field(default_factory=list)
    node_reports: list[NodeExplorationReport] = field(default_factory=list)
    snapshots_taken: int = 0
    clones_created: int = 0
    inputs_explored: int = 0
    cycles_completed: int = 0
    wall_time_s: float = 0.0
    workers: int = 1
    solver_queries: int = 0
    # Capture-overlap accounting (see repro.core.pipeline): total wall
    # seconds spent capturing snapshots (including the live-advance
    # between captures and payload pickling), and how many of those
    # seconds the campaign captured with no submitted work outstanding.
    # On the inline transport the two are equal; on pooled transports
    # their gap is capture time hidden behind exploration.
    capture_wall_s: float = 0.0
    capture_blocked_s: float = 0.0
    # Which dispatch transport ran the campaign, and its total framed
    # wire traffic (0 for in-process transports with no frames).
    transport: str = "local"
    wire_bytes_sent: int = 0
    wire_bytes_received: int = 0
    # Failover accounting: worker slots lost mid-campaign (with their
    # labels) and tasks requeued onto survivors.  All zero on a
    # failure-free run; results are bit-identical either way.
    worker_failures: int = 0
    tasks_requeued: int = 0
    dead_workers: list[str] = field(default_factory=list)
    max_worker_failures: int = 0
    # Differential-oracle pre-pass accounting (see
    # repro.checks.differential): which oracle ran, how many
    # divergences it found over how many (router, prefix) entries, its
    # wall-clock cost, and — when it could not run — why it was
    # skipped.  The pre-pass executes once in the main process over
    # the singular live system, so these are independent of workers
    # and transport by construction.
    differential_mode: str = "off"
    divergences: int = 0
    prefixes_checked: int = 0
    oracle_wall_s: float = 0.0
    differential_skipped: str = ""

    def time_to_detection(self) -> dict[str, float]:
        """Wall-clock seconds to the first report of each fault class."""
        return {
            fault_class: report.wall_time_s
            for fault_class, report in first_per_class(self.reports).items()
        }

    def inputs_to_detection(self) -> dict[str, int]:
        """Inputs explored before the first report of each fault class."""
        return {
            fault_class: report.inputs_explored
            for fault_class, report in first_per_class(self.reports).items()
        }

    def fault_classes_found(self) -> list[str]:
        """Distinct fault classes among the reports."""
        return sorted({report.fault_class for report in self.reports})

    def capture_hidden_fraction(self) -> float:
        """Fraction of snapshot-capture time hidden behind exploration.

        0.0 when every capture blocks the loop (inline transport);
        approaches 1.0 when worker slots explore throughout every
        capture.
        """
        if self.capture_wall_s <= 0.0:
            return 0.0
        hidden = 1.0 - self.capture_blocked_s / self.capture_wall_s
        return min(1.0, max(0.0, hidden))

    # -- benchmark compatibility --
    # benchmarks/e2e/run.py and verify.py still read these names.  A
    # campaign has no solver cache, so they are constants that nothing
    # in this package reads or writes; delete them once the benchmark
    # no longer names them.
    solver_cache_hits: ClassVar[int] = 0
    solver_cache_misses: ClassVar[int] = 0
    cache_state_fingerprints: ClassVar[dict[str, int]] = {}

    def cache_bytes_shipped(self) -> int:
        """Always 0 (see the comment above)."""
        return 0


class DiceOrchestrator:
    """Drives campaigns over one live system."""

    def __init__(
        self,
        live: LiveSystem,
        suite: PropertySuite,
        claims: SharingRegistry | None = None,
        process_factory=bgp_process_factory,
    ):
        self._live = live
        self._suite = suite
        self._claims = (
            claims
            if claims is not None
            else SharingRegistry.from_configs(live.initial_configs)
        )
        self._factory = process_factory

    @property
    def claims(self) -> SharingRegistry:
        """The origination-claim registry campaigns check against."""
        return self._claims

    def vet_change(
        self,
        node: str,
        change,
        horizon: float = 5.0,
        seed: int = 0,
        snapshot_mode: str = "marker",
    ) -> list[FaultReport]:
        """Pre-deployment what-if analysis of a configuration change.

        Snapshots the live system, applies ``change`` at ``node`` inside
        an isolated clone, propagates for ``horizon`` simulated seconds
        and evaluates the property suite.  The live system is untouched;
        an empty result means the change vetted clean against current
        state.
        """
        started = time.perf_counter()
        snapshot = self._capture(node, snapshot_mode)
        explorer = Explorer(
            snapshot, self._suite, self._claims, process_factory=self._factory
        )
        reports = []
        for violation, summary in explorer.vet_change(
            node, change, horizon=horizon, seed=seed
        ):
            reports.append(
                FaultReport(
                    fault_class=violation.fault_class,
                    property_name=violation.property_name,
                    node=violation.node,
                    detected_at=self._live.network.sim.now,
                    wall_time_s=time.perf_counter() - started,
                    input_summary=summary,
                    evidence=violation.evidence,
                    snapshot_id=snapshot.snapshot_id,
                    inputs_explored=1,
                )
            )
        return reports

    def run_campaign(self, config: OrchestratorConfig) -> CampaignResult:
        """Run the configured number of cycles; see module docstring.

        With ``config.differential`` enabled, an oracle pre-pass first
        checks the live system's converged routes against an
        independent authority (:mod:`repro.checks.differential`); any
        divergences lead the campaign's fault reports as
        ``model_divergence`` faults.  The pre-pass runs once, in the
        main process, over the singular live system — before
        exploration advances it — so its verdict is byte-identical at
        any worker count, shard count, or transport.
        """
        prepass_reports, prepass_stats = self._differential_prepass(config)
        result = self._run_campaign_inner(config)
        result.differential_mode = prepass_stats["mode"]
        result.divergences = prepass_stats["divergences"]
        result.prefixes_checked = prepass_stats["prefixes_checked"]
        result.oracle_wall_s = prepass_stats["oracle_wall_s"]
        result.differential_skipped = prepass_stats.get("skipped", "")
        if prepass_reports:
            result.reports = prepass_reports + result.reports
        return result

    def _differential_prepass(
        self, config: OrchestratorConfig
    ) -> tuple[list[FaultReport], dict]:
        if config.differential == "off":
            return [], {
                "mode": "off", "divergences": 0,
                "prefixes_checked": 0, "oracle_wall_s": 0.0,
            }
        # Imported here: the checks package pulls in the differential
        # oracles, which campaigns without the knob never need.
        from repro.checks.differential import differential_fault_reports

        return differential_fault_reports(self._live, config.differential)

    def _run_campaign_inner(self, config: OrchestratorConfig) -> CampaignResult:
        """The one campaign loop: capture, start session, finish, merge.

        Execution mode is configuration of this loop, never a different
        loop.  Two objects carry it:

        * the **engine** decides *where* a session's tasks run — on
          whatever transport :meth:`_build_engine` returns; at
          ``workers=1`` local that is the inline transport, the serial
          reference every other transport must equal;
        * the **session planner** decides what a session *is* — one
          task, or rounds of tasks carrying one frontier shard each
          (:meth:`_start_session` / :meth:`_finish_session`).

        Every capture runs on this thread, in ``plan_captures`` order,
        when the loop asks for it (:class:`SnapshotPipeline`).
        Sessions start in node order as their captures arrive and are
        finished and merged strictly in that order, every session of a
        cycle before the next cycle's first, so fault reports and
        counters are the same in every mode.  Counters are per
        *merged* session: on ``stop_after_first_fault`` merging stops
        at the faulty session and the engine cancels unstarted tasks.
        An inline campaign has then taken exactly one capture per
        merged session, and a pooled one none past the faulting cycle.
        """
        started = time.perf_counter()
        nodes = self._campaign_nodes(config)
        shards = self._session_shards(config)
        workers = self._campaign_workers(config)
        requests = plan_captures(nodes, config.cycles)

        def capture_one(request):
            # The live system moves on between captures (background
            # churn, timers) so each snapshot sees genuinely newer
            # state.  The advance after the *last* capture is the
            # campaign's epilogue below, so an early stop leaves the
            # live system where its last capture did.
            if request.index:
                self._advance_live(config)
            snapshot = self._capture(request.node, config.snapshot_mode)
            return snapshot, self._live.network.sim.now

        with self._build_engine(config, workers) as engine:
            captures = SnapshotPipeline(
                capture_one, requests,
                # Nothing leaves the process on the inline transport,
                # so there is no payload to pre-pickle.
                prepare_fn=None if engine.inline else pickle.dumps,
            )
            result = CampaignResult(
                workers=engine.workers, transport=config.transport,
            )
            run = _CampaignRun(
                config, engine, claims_to_spec(self._claims), shards,
            )
            pending: deque[_Session] = deque()  # started, not yet merged

            def merge_pending() -> bool:
                """Finish and merge the started sessions in task order;
                True when the campaign should stop."""
                while pending:
                    session = pending.popleft()
                    report = self._finish_session(run, session)
                    result.snapshots_taken += 1
                    self._merge_node_report(
                        result, report,
                        snapshot_id=session.snapshot_id,
                        detected_at=session.captured.detected_at,
                        started=started,
                    )
                    if config.stop_after_first_fault and result.reports:
                        return True
                return False

            stopped = False
            for cycle in range(config.cycles):
                for _ in nodes:
                    # A capture only *exposes* its time when no
                    # submitted work is outstanding; capturing while
                    # worker slots still explore is overlap, so it does
                    # not count as blocked.
                    busy = any(
                        not handle.done()
                        for session in pending
                        for handle in session.handles
                    )
                    captured = captures.next_capture()
                    result.capture_wall_s += captured.capture_wall_s
                    if not busy:
                        result.capture_blocked_s += captured.capture_wall_s
                    pending.append(self._start_session(run, captured))
                    # An inline session already ran inside submit: merge
                    # it now, so an early stop takes no further capture
                    # and runs no further session.  Pooled engines get
                    # the whole cycle submitted first — finishing a
                    # sharded session early would block on its later
                    # rounds and starve the next node's round 0.
                    if engine.inline:
                        stopped = merge_pending()
                        if stopped:
                            break
                stopped = stopped or merge_pending()
                if stopped:
                    break
                result.cycles_completed = cycle + 1
            self._record_wire_stats(result, engine)
        if requests and not stopped:
            # Nothing is left to overlap the advance after the last
            # capture, so it blocks.
            advance_started = time.perf_counter()
            self._advance_live(config)
            advanced = time.perf_counter() - advance_started
            result.capture_wall_s += advanced
            result.capture_blocked_s += advanced
        result.wall_time_s = time.perf_counter() - started
        return result

    # -- shared campaign plumbing --

    @staticmethod
    def _session_shards(config: OrchestratorConfig) -> int | None:
        """The session planner ``frontier_shards`` selects: the maximum
        shard tasks per round of a sharded session, or None for whole
        sessions.  An unknown ``frontier`` fails here, before anything
        is captured."""
        resolve_discipline(config.frontier)
        shards = config.frontier_shards
        if shards <= 1:
            return None
        if config.strategy != STRATEGY_CONCOLIC:
            raise ValueError(
                "frontier sharding applies to the concolic strategy "
                f"only; got strategy={config.strategy!r}"
            )
        return shards

    @staticmethod
    def _campaign_workers(config: OrchestratorConfig) -> int:
        """The worker-slot count the config's transport implies."""
        if config.transport_factory is not None:
            # The injected transport knows its own slot count; the
            # engine reports it once built (result.workers is set from
            # engine.workers).
            return resolve_workers(config.workers)
        if config.transport == "socket":
            if not config.remote_workers:
                raise ValueError(
                    "transport='socket' requires remote_workers "
                    "(host:port addresses, one worker slot each)"
                )
            return len(config.remote_workers)
        return resolve_workers(config.workers)

    @staticmethod
    def _build_engine(
        config: OrchestratorConfig, workers: int
    ) -> ParallelCampaignEngine:
        """The dispatch engine for the config's transport choice."""
        if config.transport_factory is not None:
            return ParallelCampaignEngine(
                transport=config.transport_factory(),
                max_worker_failures=config.max_worker_failures,
            )
        if config.transport == "local":
            return ParallelCampaignEngine(
                workers=workers,
                max_worker_failures=config.max_worker_failures,
            )
        from repro.core.remote import LoopbackTransport, SocketTransport

        if config.transport == "loopback":
            return ParallelCampaignEngine(
                transport=LoopbackTransport(slots=workers),
                max_worker_failures=config.max_worker_failures,
            )
        if config.transport == "socket":
            return ParallelCampaignEngine(
                transport=SocketTransport(config.remote_workers),
                max_worker_failures=config.max_worker_failures,
            )
        raise ValueError(
            f"unknown transport {config.transport!r}; choose from "
            "local, loopback, socket"
        )

    @staticmethod
    def _record_wire_stats(
        result: CampaignResult, engine: ParallelCampaignEngine
    ) -> None:
        result.wire_bytes_sent = getattr(engine.transport, "bytes_sent", 0)
        result.wire_bytes_received = getattr(
            engine.transport, "bytes_received", 0
        )
        result.worker_failures = len(engine.failures)
        result.tasks_requeued = engine.tasks_requeued
        result.dead_workers = [
            failure.worker for failure in engine.failures
        ]
        result.max_worker_failures = engine.max_worker_failures

    def _campaign_nodes(self, config: OrchestratorConfig) -> list[str]:
        nodes = (
            list(config.explorer_nodes)
            if config.explorer_nodes is not None
            else sorted(self._live.network.processes)
        )
        if not nodes:
            raise ValueError("no explorer nodes")
        if len(set(nodes)) != len(nodes):
            # A session's seed derives from (cycle, node), so a node
            # listed twice would explore twice per cycle on one seed —
            # a mistyped node list, refused rather than doubling work.
            raise ValueError(f"duplicate explorer nodes in {nodes!r}")
        return nodes

    def _capture(self, node: str, snapshot_mode: str):
        if snapshot_mode == "atomic":
            return self._live.coordinator.capture_atomic(node)
        return self._live.coordinator.capture(node)

    def _advance_live(self, config: OrchestratorConfig) -> None:
        if config.live_advance > 0:
            self._live.run(
                until=self._live.network.sim.now + config.live_advance
            )

    def _merge_node_report(
        self,
        result: CampaignResult,
        node_report: NodeExplorationReport,
        snapshot_id: str,
        detected_at: float,
        started: float,
    ) -> None:
        """Fold one exploration session into the campaign result.

        Every session merges through here, in the same deterministic
        task order, so per-report counters like ``inputs_explored`` are
        identical at any worker count.
        """
        result.node_reports.append(node_report)
        result.clones_created += node_report.clones_created
        result.solver_queries += node_report.solver_queries
        inputs_before = result.inputs_explored
        result.inputs_explored += node_report.executions
        for violation, input_summary in node_report.violations:
            result.reports.append(
                FaultReport(
                    fault_class=violation.fault_class,
                    property_name=violation.property_name,
                    node=violation.node,
                    detected_at=detected_at,
                    wall_time_s=time.perf_counter() - started,
                    input_summary=input_summary,
                    evidence=violation.evidence,
                    snapshot_id=snapshot_id,
                    inputs_explored=inputs_before + node_report.executions,
                )
            )

    # -- sessions --

    def _start_session(
        self, run: "_CampaignRun", captured: CapturedSnapshot
    ) -> "_Session":
        """Open one (cycle, node) session and submit its first tasks.

        The session's parameters are stated here, once: every task of
        the session ships this :class:`ExplorationConfig`.  A whole
        session is one task.

        A sharded session fans out as *rounds* of up to ``run.shards``
        shard tasks; this submits round 0, which partitions by seed
        lineage, so its shard count is bounded by the grammar-seed
        count (every planned shard must start with at least one
        entry).
        """
        config = run.config
        session = _Session(
            captured=captured,
            config=ExplorationConfig(
                node=captured.node,
                inputs=config.inputs_per_node,
                strategy=config.strategy,
                horizon=config.horizon,
                grammar_seeds=config.grammar_seeds,
                seed=derive_seed(
                    config.seed, f"cycle{captured.cycle}/{captured.node}"
                ),
                frontier=config.frontier,
            ),
            budget_left=config.inputs_per_node,
        )
        if run.shards is None:
            session.handles = [self._submit(run, session)]
            return session
        plan = plan_round(
            max(1, config.grammar_seeds), session.budget_left, run.shards
        )
        if plan is not None:
            # Round 0 ships no frontier: workers re-derive the seed
            # list and keep their lineage partition.
            self._submit_shard_round(
                run, session, plan, [None] * plan.count
            )
        return session

    def _submit(
        self,
        run: "_CampaignRun",
        session: "_Session",
        shard: FrontierShard | None = None,
    ) -> TaskHandle:
        """Build and submit one task of ``session``, whole or shard."""
        captured = session.captured
        return run.engine.submit(
            ExplorationTask(
                index=next(run.task_index),
                config=session.config,
                snapshot=captured.snapshot,
                snapshot_blob=captured.payload,
                suite=self._suite,
                claims=run.claims_spec,
                process_factory=self._factory,
                shard=shard,
            )
        )

    def _submit_shard_round(
        self,
        run: "_CampaignRun",
        session: "_Session",
        plan: ShardPlan,
        frontiers: list[Frontier | None],
    ) -> None:
        """Submit one round's shard tasks in shard order, each with its
        slice of the merged frontier."""
        session.handles = [
            self._submit(
                run, session,
                FrontierShard(
                    round=session.round,
                    index=index,
                    count=plan.count,
                    budget=plan.budgets[index],
                    frontier=frontier,
                ),
            )
            for index, frontier in enumerate(frontiers)
        ]

    def _finish_session(
        self, run: "_CampaignRun", session: "_Session"
    ) -> NodeExplorationReport:
        """Drive a session to completion.

        A whole session has one outcome.  A sharded session loops over
        rounds: each iteration resolves the current round's handles in
        shard order, folds their reports in that same order, and merges
        the leftover frontiers first-writer-wins.  The leftover entries
        and the unspent budget are then re-dealt round-robin over up to
        ``run.shards`` fresh tasks — work stealing at round barriers,
        with the steal a pure function of outcome content, never of
        wall-clock.  Every planned shard has at least one entry and one
        execution, so the budget strictly decreases and the loop
        terminates.
        """
        if run.shards is None:
            (handle,) = session.handles
            outcome = handle.result()
            session.snapshot_id = outcome.snapshot_id
            return outcome.report
        final = Frontier()
        while session.handles:
            outcomes = [handle.result() for handle in session.handles]
            session.handles = []
            session.snapshot_id = outcomes[0].snapshot_id
            for outcome in outcomes:
                session.reports.append(outcome.report)
                session.budget_left -= outcome.report.executions
            final = Frontier.merge(
                [outcome.frontier for outcome in outcomes]
            )
            session.round += 1
            plan = plan_round(
                len(final.entries), session.budget_left, run.shards
            )
            if plan is None:
                break
            self._submit_shard_round(
                run, session, plan, final.split(plan.count)
            )
        return self._merged_session_report(session, final)

    @staticmethod
    def _merged_session_report(
        session: "_Session", final: Frontier
    ) -> NodeExplorationReport:
        """Fold shard reports, in (round, shard) order, into one.

        Additive counters sum across shards; set-derived counters
        (unique paths, branch/shape coverage) are recomputed from the
        final merged frontier — summing per-shard values would double
        count paths two shards both reached.
        """
        report = NodeExplorationReport(
            node=session.config.node,
            strategy=STRATEGY_CONCOLIC,
            snapshot_id=session.snapshot_id,
        )
        if session.reports and session.reports[0].skipped_reason:
            report.skipped_reason = session.reports[0].skipped_reason
        for shard_report in session.reports:
            report.executions += shard_report.executions
            report.crashes += shard_report.crashes
            report.clones_created += shard_report.clones_created
            report.violations.extend(shard_report.violations)
            report.wall_time_s += shard_report.wall_time_s
            report.solver_queries += shard_report.solver_queries
            report.solver_sat += shard_report.solver_sat
        report.unique_paths = len(final.seen_paths)
        report.branch_coverage = len(final.seen_constraints)
        report.shape_coverage = len(final.seen_shapes)
        return report


@dataclass
class _CampaignRun:
    """What every session of one campaign shares."""

    config: OrchestratorConfig
    engine: ParallelCampaignEngine
    claims_spec: ClaimSpec
    # Maximum shard tasks per session round; None = whole sessions.
    shards: int | None
    # Position in the campaign's deterministic task order.
    task_index: Iterator[int] = field(default_factory=itertools.count)


@dataclass
class _Session:
    """In-flight state of one (cycle, node) exploration session."""

    captured: CapturedSnapshot
    # The session's parameters, stated once; every task ships it.
    config: ExplorationConfig
    budget_left: int = 0
    # A pre-pickled payload replaces the snapshot object, so the id is
    # read off the session's first outcome.
    snapshot_id: str = ""
    round: int = 0
    # The tasks in flight — the whole session's one task, or the current
    # round's shards — submitted and resolved in order; empty once a
    # sharded session is exhausted.
    handles: list = field(default_factory=list)
    # Every shard report absorbed so far, in (round, shard) order.
    reports: list[NodeExplorationReport] = field(default_factory=list)
