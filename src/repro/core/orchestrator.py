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
* the **session planner**: a session is rounds of
  :class:`~repro.core.parallel.ExplorationTask` objects that each carry one
  :class:`~repro.concolic.frontier.FrontierShard` of it, at most
  ``frontier_shards`` per round.  At the default of one, a session is
  one round of one shard holding the full budget.

The merge is performed in deterministic task order whatever the two
are, so a campaign's fault reports do not depend on the worker count,
on the shard count's placement, or on the dispatch transport.
"""

from __future__ import annotations

import gc
import pickle
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, ClassVar

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
from repro.core.faultclass import (
    DifferentialStats,
    FaultReport,
    first_per_class,
)
from repro.core.live import LiveSystem, bgp_process_factory
from repro.core.parallel import (
    ClaimSpec,
    DispatchStats,
    ExplorationTask,
    ParallelCampaignEngine,
    TaskHandle,
    claims_to_spec,
    make_transport,
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
    :mod:`repro.core.pipeline`).  Every snapshot is taken with the
    marker protocol
    (:meth:`~repro.core.snapshot.SnapshotCoordinator.capture`) started
    at the explorer node.
    """

    inputs_per_node: int = 30
    horizon: float = 5.0
    strategy: str = STRATEGY_CONCOLIC
    explorer_nodes: list[str] | None = None  # None = all, sorted
    cycles: int = 1
    # Stop at the first fault, at three levels: the campaign merges no
    # session after the first faulty one, that session plans no round
    # after the first holding a violation and runs no input after its
    # first faulty execution, and a clone stops simulating once a
    # monotone property has fired (see repro.core.explorer).  The
    # faulting input is the one a full run finds first, and what it
    # reports is a non-empty subset of what a full run reports for it.
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
    # precedence over `workers`/`transport`/`remote_workers`.
    transport_factory: Callable | None = None
    # Branch-frontier discipline for concolic exploration — the pop
    # order of every shard's frontier: "bfs" (the SAGE-style
    # generational default), "dfs" or "coverage"; --frontier on the CLI.
    frontier: str = "bfs"
    # Maximum shard tasks per session round.  Every session is rounds
    # of shards with work stealing at the round barriers; at 1 it is
    # one round of one shard holding the full budget, and above 1
    # (concolic only) its frontier is partitioned.  The shard
    # decomposition is part of the campaign *configuration* — results
    # at a given shard count are identical at any worker count, so
    # workers=1 with the same shard count is the serial reference for
    # sharded runs.  --frontier-shards on the CLI.
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
    dispatch: DispatchStats = field(default_factory=DispatchStats)
    differential: DifferentialStats = field(default_factory=DifferentialStats)

    def time_to_detection(self) -> dict[str, float]:
        """Wall-clock seconds to the first report of each fault class,
        counted, like ``wall_time_s``, from the campaign's start (the
        differential pre-pass included)."""
        return {
            fault_class: report.wall_time_s
            for fault_class, report in first_per_class(self.reports).items()
        }

    def inputs_to_detection(self) -> dict[str, int]:
        """Inputs explored up to the first report of each fault class:
        counted through its session's last execution, so with
        ``stop_after_first_fault`` it names the faulting input (0 =
        the session's null probe)."""
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
    ) -> list[FaultReport]:
        """Pre-deployment what-if analysis of a configuration change.

        Snapshots the live system with the marker protocol started at
        ``node``, applies ``change`` at ``node`` inside
        an isolated clone, propagates for ``horizon`` simulated seconds
        and evaluates the property suite.  The live system is untouched;
        an empty result means the change vetted clean against current
        state.
        """
        started = time.perf_counter()
        snapshot = self._live.coordinator.capture(node)
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

        The campaign runs with everything that exists when it starts —
        the live system above all — frozen out of the cyclic garbage
        collector (``gc.freeze``), so that no collection during the
        campaign walks the live heap again; ``gc.unfreeze`` hands it
        back on the way out, raised or not.  Both calls are O(1).  A
        caller that has frozen the heap itself is left to unfreeze it.

        Every wall-clock figure of the result — ``wall_time_s`` and each
        report's time to detection, pre-pass divergences and session
        faults alike — counts ``perf_counter`` seconds from one origin:
        this call's entry.
        """
        started = time.perf_counter()
        freeze = gc.get_freeze_count() == 0
        if freeze:
            gc.freeze()
        try:
            prepass_reports, differential = self._differential_prepass(
                config, started
            )
            result = self._run_campaign_inner(config, started)
        finally:
            if freeze:
                gc.unfreeze()
        result.differential = differential
        if prepass_reports:
            result.reports = prepass_reports + result.reports
        return result

    def _differential_prepass(
        self, config: OrchestratorConfig, started: float
    ) -> tuple[list[FaultReport], DifferentialStats]:
        if config.differential == "off":
            return [], DifferentialStats()
        # Imported here: the checks package pulls in the differential
        # oracles, which campaigns without the knob never need.
        from repro.checks.differential import differential_fault_reports

        return differential_fault_reports(
            self._live, config.differential, started_at=started
        )

    def _run_campaign_inner(
        self, config: OrchestratorConfig, started: float
    ) -> CampaignResult:
        """The one campaign loop: capture, start session, finish, merge.

        Execution mode is configuration of this loop, never a different
        loop.  Two objects carry it:

        * the **engine** decides *where* a session's tasks run — on
          ``transport_factory``'s transport or the one
          :func:`~repro.core.parallel.make_transport` builds; at
          ``workers=1`` local that is the inline transport, the serial
          reference every other transport must equal;
        * the **session planner** decides what a session *is* — rounds
          of tasks carrying one frontier shard each, up to
          ``frontier_shards`` per round (:meth:`_start_session` /
          :meth:`_finish_session`).

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
        nodes = self._campaign_nodes(config)
        shards = self._session_shards(config)
        requests = plan_captures(nodes, config.cycles)

        def capture_one(request):
            # The live system moves on between captures (background
            # churn, timers) so each snapshot sees genuinely newer
            # state.  The advance after the *last* capture is the
            # campaign's epilogue below, so an early stop leaves the
            # live system where its last capture did.
            if request.index:
                self._advance_live(config)
            snapshot = self._live.coordinator.capture(request.node)
            return snapshot, self._live.network.sim.now

        transport = (
            config.transport_factory()
            if config.transport_factory is not None
            else make_transport(
                config.workers, config.transport, config.remote_workers
            )
        )
        with ParallelCampaignEngine(
            transport, config.max_worker_failures
        ) as engine:
            captures = SnapshotPipeline(
                capture_one, requests,
                # Nothing leaves the process on the inline transport,
                # so there is no payload to pre-pickle.
                prepare_fn=None if engine.inline else pickle.dumps,
            )
            result = CampaignResult(workers=engine.workers)
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
            result.dispatch = engine.dispatch_stats(config.transport)
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
    def _session_shards(config: OrchestratorConfig) -> int:
        """The maximum shard tasks per session round ``frontier_shards``
        selects.  An unknown ``frontier`` fails here, before anything
        is captured."""
        resolve_discipline(config.frontier)
        if config.frontier_shards > 1 and config.strategy != STRATEGY_CONCOLIC:
            raise ValueError(
                "frontier sharding applies to the concolic strategy "
                f"only; got strategy={config.strategy!r}"
            )
        return max(1, config.frontier_shards)

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

    def _advance_live(self, config: OrchestratorConfig) -> None:
        if config.live_advance > 0:
            self._live.run(
                until=self._live.network.sim.now + config.live_advance
            )

    def _merge_node_report(
        self,
        result: CampaignResult,
        node_report: NodeExplorationReport,
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
                    snapshot_id=node_report.snapshot_id,
                    inputs_explored=inputs_before + node_report.executions,
                )
            )

    # -- sessions --

    def _start_session(
        self, run: "_CampaignRun", captured: CapturedSnapshot
    ) -> "_Session":
        """Open one (cycle, node) session and submit its first tasks.

        The session's parameters are stated here, once: every task of
        the session ships this :class:`ExplorationConfig`.

        A session fans out as *rounds* of up to ``run.shards`` shard
        tasks; this submits round 0, which partitions by seed lineage,
        so its shard count is bounded by the grammar-seed count (every
        planned shard must start with at least one entry).  Round 0
        ships no frontier: workers re-derive the seed list and keep
        their lineage partition.
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
                stop_at_first_fault=config.stop_after_first_fault,
            ),
            budget_left=config.inputs_per_node,
        )
        # Never None: ExplorationConfig has refused a budget below one.
        plan = plan_round(
            max(1, config.grammar_seeds), session.budget_left, run.shards
        )
        self._submit_shard_round(run, session, plan, [None] * plan.count)
        return session

    def _submit(
        self, run: "_CampaignRun", session: "_Session", shard: FrontierShard
    ) -> TaskHandle:
        """Build and submit one shard task of ``session``."""
        captured = session.captured
        return run.engine.submit(
            ExplorationTask(
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

        Each iteration resolves the current round's handles in shard
        order, folds their reports in that same order, and merges the
        leftover frontiers first-writer-wins.  The leftover entries and
        the unspent budget are then re-dealt round-robin over up to
        ``run.shards`` fresh tasks — work stealing at round barriers,
        with the steal a pure function of outcome content, never of
        wall-clock.  Every planned shard has at least one entry and one
        execution, so the budget strictly decreases and the loop
        terminates; a one-shard round ends only with its budget spent
        or its frontier empty, so a session at ``run.shards == 1`` is
        that one round.  With ``stop_after_first_fault`` no round
        follows one that holds a violation.
        """
        while True:
            outcomes = [handle.result() for handle in session.handles]
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
            faulted = session.config.stop_at_first_fault and any(
                outcome.report.violations for outcome in outcomes
            )
            if plan is None or faulted:
                return self._merged_session_report(session.reports, final)
            self._submit_shard_round(
                run, session, plan, final.split(plan.count)
            )

    @staticmethod
    def _merged_session_report(
        reports: list[NodeExplorationReport], final: Frontier
    ) -> NodeExplorationReport:
        """Fold shard reports, in (round, shard) order, into one.

        Identity (node, strategy, snapshot, skip reason) is the first
        report's.  Additive counters sum across shards; set-derived
        counters (unique paths, branch/shape coverage) are recomputed
        from the final merged frontier — summing per-shard values would
        double count paths two shards both reached.
        """
        first = reports[0]
        report = NodeExplorationReport(
            node=first.node,
            strategy=first.strategy,
            snapshot_id=first.snapshot_id,
            skipped_reason=first.skipped_reason,
        )
        for shard_report in reports:
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
    # Maximum shard tasks per session round.
    shards: int


@dataclass
class _Session:
    """In-flight state of one (cycle, node) exploration session."""

    captured: CapturedSnapshot
    # The session's parameters, stated once; every task ships it.
    config: ExplorationConfig
    budget_left: int = 0
    round: int = 0
    # The current round's shard tasks, submitted and resolved in order.
    handles: list = field(default_factory=list)
    # Every shard report absorbed so far, in (round, shard) order.
    reports: list[NodeExplorationReport] = field(default_factory=list)
