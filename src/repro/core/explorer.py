"""Per-node exploration over cloned snapshots (Figure 2, steps 3-5).

One :class:`Explorer` owns one snapshot and one explorer node.  For every
exploration input it:

1. clones the snapshot into a fresh, isolated network;
2. injects the input into the node's update handler, impersonating an
   established peer (the node "autonomously exercises its local
   actions");
3. runs the clone for a horizon so consequences propagate system-wide;
4. evaluates the property suite over the clone, reaching remote domains
   only through the sharing interface.

A session spends one clone more than its inputs, the null probe; to pick
the peer and seed the grammar it builds the node's own router alone,
once, in an uncounted lazy network (:meth:`Explorer._open_session`).
A clone restores a router only once something reaches it (see
:mod:`repro.core.snapshot`), and the checks read only what a run built,
so a clone whose input dies at the explored router restores that one.

There is one session body, :meth:`Explorer.explore_shard`: a session is
rounds of frontier shards, and a whole session is round 0 of one shard
holding the full budget (:meth:`Explorer.explore`).  Every strategy
runs through it and hands back its frontier, so the campaign merges
every session the same way.

**Stop at the first fault.**  With ``ExplorationConfig.
stop_at_first_fault`` set, work stops at the first fault in the clone
as well as in the session.  Every clone (the null probe and each input)
runs to its horizon in the doubling slices of :data:`STOP_SLICES` and
after each checks the suite's *monotone* properties alone
(:attr:`~repro.core.properties.Property.monotone`: a verdict that only
grows over a run).  The first slice that reports a violation ends the
clone with those violations; a clone that reaches the horizon is
checked by the whole suite, as without the flag.  The session ends
after its first faulty execution: a shard returns right after a faulty
null probe, and the engine stops before negating a faulty execution's
branches.  Soundness:

* a clone whose monotone check reports nothing at any slice runs
  bit-identically to an unsliced one — ``run(until=a)`` then
  ``run(until=b)`` executes the events ``run(until=b)`` does, in the
  same order, and the checks read state without writing it or
  recording a branch — and reaches the same ``start + horizon``;
* so every execution before the session's first faulty one runs and
  reports exactly as without the flag, and the first faulty input is
  the same input;
* its reported violations are a non-empty subset of what the full
  horizon reports: each is a monotone verdict, reported again at the
  horizon;
* so nothing is reported that a full run would not also report.

Input generation implements all three of the paper's path-explosion
mitigations: exploration starts from current state (the snapshot), it
targets the state-changing UPDATE handler, and inputs are small,
grammar-generated messages refined by concolic feedback.

The explorer also implements the paper's route-selection exploration:
"We treat as symbolic the condition that describes whether a route is
the locally most preferred one" — see :meth:`Explorer.explore_selection`.
"""

from __future__ import annotations

import itertools
import logging
import random
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.bgp.errors import BGPError
from repro.bgp.messages import decode_message
from repro.concolic.engine import ConcolicEngine, ExplorationResult
from repro.concolic.frontier import Frontier, FrontierShard
from repro.concolic.grammar import UpdateGrammar
from repro.concolic.solver import Solver
from repro.concolic.symbolic import SymBytes, SymInt
from repro.core.live import bgp_process_factory
from repro.core.properties import CheckContext, PropertySuite, Violation
from repro.core.sharing import ClaimTable, SharingInterface, domains_of
from repro.core.snapshot import Snapshot
from repro.net.network import Network
from repro.util.rng import derive_seed

STRATEGY_CONCOLIC = "concolic"
STRATEGY_RANDOM = "random"
STRATEGY_GRAMMAR = "grammar"

ALL_STRATEGIES = (STRATEGY_CONCOLIC, STRATEGY_RANDOM, STRATEGY_GRAMMAR)

# Stop mode's slice schedule: the fractions of the horizon at which a
# clone checks its monotone properties before running on to the next.
# Doubling bounds the simulated time spent past a fault's showing at
# twice that time (or h/64), while the checks stay logarithmic in the
# horizon: six read-only passes over the monotone properties per
# clone, beside the one full check at ``h`` a fault-free clone makes.
# A crash shows at injection and ends its clone at h/64; a bad
# gadget's oscillation settles RouteStability's verdict by about
# 0.23 s, inside the first slice of a 15 s horizon.
STOP_SLICES = (1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2)

_log = logging.getLogger(__name__)


@dataclass
class ExplorationConfig:
    """Parameters for one node-exploration session.

    The campaign builds one per (cycle, node) session, ``seed`` already
    derived, and every shard task of the session ships this object as
    it is.  ``inputs`` is the session's whole execution budget, at
    least one.  Inputs arrive from the node's first established peer (a
    node with none is skipped), and each run records at most
    :data:`~repro.concolic.symbolic.MAX_BRANCHES` branches.
    """

    node: str
    inputs: int = 30
    strategy: str = STRATEGY_CONCOLIC
    horizon: float = 5.0
    grammar_seeds: int = 3
    seed: int = 0
    # Stop at the session's first fault: clones run in
    # :data:`STOP_SLICES`, a shard ends at its first faulty execution
    # (see the module docstring).
    stop_at_first_fault: bool = False

    def __post_init__(self):
        if self.strategy not in ALL_STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.inputs < 1:
            raise ValueError(f"inputs must be >= 1, got {self.inputs}")


@dataclass
class NodeExplorationReport:
    """Aggregate outcome of exploring one node over one snapshot."""

    node: str
    strategy: str
    snapshot_id: str
    executions: int = 0
    unique_paths: int = 0
    branch_coverage: int = 0
    shape_coverage: int = 0
    clones_created: int = 0
    violations: list[tuple[Violation, str]] = field(default_factory=list)
    crashes: int = 0
    skipped_reason: str | None = None
    solver_queries: int = 0
    solver_sat: int = 0


@dataclass
class SelectionReport:
    """Outcome of route-selection exploration at one node."""

    node: str
    prefix: str = ""
    candidates: int = 0
    executions: int = 0
    distinct_outcomes: int = 0
    outcomes: list[str] = field(default_factory=list)
    skipped_reason: str | None = None


def summarize_input(data: bytes) -> str:
    """A short human-readable rendering of one exploration input."""
    try:
        message = decode_message(data)
    except BGPError as error:
        return f"malformed[{type(error).__name__}/{error.subcode}] {len(data)}B"
    except Exception as exc:  # noqa: BLE001 - summary must never fail
        return f"undecodable[{type(exc).__name__}] {len(data)}B"
    text = repr(message)
    return text if len(text) <= 120 else text[:117] + "..."


def random_mutations(seeds: list[SymBytes], rng: random.Random,
                     count: int) -> Iterator[SymBytes]:
    """The random strategy's inputs, drawn lazily: ``count`` mutations
    of the seeds in turn, each setting 1..4 randomly chosen marked
    bytes to random values (a seed with no marked byte passes as it
    is).  The byte-flipping baseline of EXP-EXPLORE."""
    for index in range(count):
        sym_input = seeds[index % len(seeds)]
        offsets = sorted(sym_input.variables())
        if not offsets:
            yield sym_input
            continue
        data = bytearray(sym_input.concrete)
        for _ in range(rng.randint(1, 4)):
            offset = rng.choice(offsets)
            data[offset] = rng.randint(0, 255)
        yield SymBytes(bytes(data), sym_input.variables())


class Explorer:
    """Explores one node's behaviour over clones of one snapshot.

    Determinism contract: given the same snapshot, property suite,
    claims, and :class:`ExplorationConfig` (including its seed), an
    exploration session produces identical reports in any process —
    every RNG is derived from the config seed and clones share nothing
    mutable with the live system.  The clones and probe networks one
    explorer builds share one value table
    (:attr:`~repro.net.network.Network.interned`), so a clone takes the
    decodes, encodings and attribute sets its siblings made; the table
    decides object identity and nothing else, and it lives and dies
    with the explorer, inside one task.
    """

    def __init__(self, snapshot: Snapshot, suite: PropertySuite,
                 claims: ClaimTable):
        self._snapshot = snapshot
        self._suite = suite
        self._claims = claims
        self._clone_counter = 0
        # Each AS's routers with their configurations as every clone
        # starts, and the questions the suite asks: with the claims,
        # all a clone's sharing interface needs besides the clone.
        self._domains = domains_of({
            name: checkpoint.state.get("config")
            for name, checkpoint in snapshot.checkpoints.items()
        })
        self._questions = suite.questions()
        # Per explorer node, the baselines that depend on the snapshot,
        # the node and the claims alone (CheckContext.node_memo).
        self._node_memos: dict[str, dict] = {}
        # The value table of every network this explorer builds.
        self._interned: dict = {}

    # -- clone plumbing --

    def _new_clone(self, seed: int):
        """A fresh clone; every caller closes it (``with closing(...)``)
        once it has read what it needs, so a session never holds more
        than the clone it is running."""
        self._clone_counter += 1
        return self._snapshot.clone(
            bgp_process_factory,
            seed=derive_seed(seed, f"clone/{self._clone_counter}"),
            interned=self._interned,
        )

    @contextmanager
    def _probe_router(self, node: str):
        """``node``'s checkpointed router alone, to read its sessions
        and RIBs without cloning the system: the one router built in
        the snapshot's lazy network, which is never run and is closed
        on exit like every clone.  ``clones_created`` does not count it.
        """
        with closing(self._snapshot.lazy_network(
            bgp_process_factory, interned=self._interned
        )) as network:
            yield network.processes[node]

    def _sharing_for(self, clone) -> SharingInterface:
        """The clone's sharing interface, over the explorer's claims."""
        return SharingInterface(
            self._claims, self._domains, clone, self._questions
        )

    # -- message exploration (Figure 2) --

    def explore(self, config: ExplorationConfig) -> NodeExplorationReport:
        """Run one whole session: the one round-0 shard that holds the
        full budget (see :meth:`explore_shard`)."""
        whole = FrontierShard(index=0, count=1, budget=config.inputs)
        return self.explore_shard(config, whole)[0]

    def explore_shard(
        self, config: ExplorationConfig, shard: FrontierShard
    ) -> tuple[NodeExplorationReport, Frontier]:
        """Run one shard of a session — the one session body.

        A session is rounds of shards; a whole session is round 0 of
        one shard holding the full budget, and the grammar and random
        strategies are always that.  Hermetic by construction:
        everything the shard does is a function of its arguments plus
        this explorer's snapshot/suite/claims — a private clone
        counter, a solver seeded from ``config.seed`` alone, and (in
        round 0, marked by ``shard.frontier is None``) the full grammar
        seed list re-derived identically on every shard before each
        keeps its positional slice.  Placement therefore cannot change
        the outcome, and a killed shard re-runs anywhere.  The
        session's null probe rides on round 0's shard 0, exactly once
        per session.

        Returns the shard's report plus its post-run frontier (consumed
        entries gone, solved children and dedup digests added) for the
        orchestrator's deterministic merge; the frontier handed in is
        left as it was.  The feedback-free strategies spend the whole
        budget without popping an entry and only fold what they ran
        into the frontier's dedup sets.
        """
        report, peer, grammar = self._open_session(config)
        if peer is None:
            return self._close_session(report), Frontier()
        if shard.frontier is None and shard.index == 0:
            # Null probe: one clone with *no* injected input, observing
            # the system's natural evolution from the snapshot.
            # Behavioural deviations that need no trigger (an
            # oscillation already in flight, a crash loop) are caught
            # here deterministically, independent of what the generated
            # inputs happen to perturb.
            self._null_probe(config, report)
            if config.stop_at_first_fault and report.violations:
                return self._close_session(report), Frontier()
        if shard.frontier is None:
            seeds = self._seeds(config, grammar)
            frontier = Frontier.from_seeds(seeds).split(shard.count)[shard.index]
        else:
            frontier = shard.frontier.copy()
        engine = ConcolicEngine(
            self._make_program(config, peer, report),
            solver=Solver(seed=derive_seed(config.seed, "solver")),
            stop_at_first_fault=config.stop_at_first_fault,
        )
        if config.strategy == STRATEGY_CONCOLIC:
            result = engine.run_shard(frontier, shard.budget)
        elif config.strategy == STRATEGY_RANDOM:
            result = engine.run_each(
                random_mutations(
                    seeds, random.Random(derive_seed(config.seed, "random")),
                    shard.budget,
                ),
                frontier,
            )
        else:  # grammar-only: fresh valid messages, no feedback
            result = engine.run_each(
                (grammar.generate().symbolic(prefix="u")
                 for _ in range(shard.budget)),
                frontier,
            )
        return self._close_session(report, result), frontier

    def _open_session(
        self, config: ExplorationConfig
    ) -> tuple[NodeExplorationReport, str | None, UpdateGrammar]:
        """What every session starts from — an empty report, the peer
        to impersonate (None = no established session: skip) and the
        node's grammar — read off **one** restore of the node's
        checkpoint.  The grammar copies its pools and draws nothing
        until asked for a message."""
        report = NodeExplorationReport(
            node=config.node,
            strategy=config.strategy,
            snapshot_id=self._snapshot.snapshot_id,
        )
        rng = random.Random(derive_seed(config.seed, f"grammar/{config.node}"))
        with self._probe_router(config.node) as router:
            peer = next(iter(router.established_peers()), None)
            grammar = UpdateGrammar.for_router(router, rng)
        if peer is None:
            report.skipped_reason = (
                f"{config.node} has no established session in the snapshot"
            )
        return report, peer, grammar

    @staticmethod
    def _seeds(config: ExplorationConfig,
               grammar: UpdateGrammar) -> list[SymBytes]:
        return [
            generated.symbolic(prefix="u")
            for generated in grammar.generate_many(
                max(1, config.grammar_seeds)
            )
        ]

    def _close_session(
        self, report: NodeExplorationReport,
        result: ExplorationResult | None = None,
    ) -> NodeExplorationReport:
        """Fill the report from the engine's result (None = skipped)."""
        if result is not None:
            report.executions = result.executions
            report.unique_paths = result.unique_paths
            report.branch_coverage = result.branch_coverage
            report.shape_coverage = result.shape_coverage
            report.crashes = len(result.crashes)
            report.solver_queries = result.solver_queries
            report.solver_sat = result.solver_sat
        report.clones_created = self._clone_counter
        return report

    def vet_change(
        self,
        node: str,
        change,
        horizon: float = 5.0,
        seed: int = 0,
    ) -> list[tuple[Violation, str]]:
        """What-if analysis of a *pending* configuration change.

        The proactive mode the paper's vision section describes: before
        an operator commits a change, DiCE applies it to a clone of the
        current system state, lets the consequences propagate, and
        evaluates the property suite.  The live system never sees the
        change unless it comes back clean.

        Returns (violation, description) pairs; empty means the change
        vetted clean against the current snapshot.
        """
        summary = f"(pending config change: {change.describe()})"
        with closing(self._new_clone(seed)) as clone:
            context = CheckContext(
                clone=clone,
                node=node,
                sharing=self._sharing_for(clone),
                input_summary=summary,
            )
            self._suite.prepare_all(context)
            clone.processes[node].apply_config_change(change)
            # The hijack check evaluates pre-injection state by design;
            # the change itself *is* the state mutation here, so re-prime
            # it (no node_memo: from this clone's changed state).
            for prop in self._suite:
                if prop.scope == "federated":
                    prop.prepare(context)
            clone.run(until=clone.sim.now + horizon)
            return [
                (violation, summary)
                for violation in self._suite.check_all(context)
            ]

    def _null_probe(self, config: ExplorationConfig,
                    report: NodeExplorationReport) -> None:
        with closing(self._new_clone(config.seed)) as clone:
            context = CheckContext(
                clone=clone,
                node=config.node,
                sharing=self._sharing_for(clone),
                input_summary="(no input: natural evolution)",
                node_memo=self._node_memos.setdefault(config.node, {}),
            )
            self._suite.prepare_all(context)
            for violation in self._run_checked(config, clone, context, 0):
                report.violations.append((violation, context.input_summary))

    def _run_checked(self, config: ExplorationConfig, clone: Network,
                     context: CheckContext, index: int) -> list[Violation]:
        """Run ``clone`` for the session's horizon, then check it.

        In stop mode the clone runs in :data:`STOP_SLICES` and ends at
        the first slice whose monotone check reports a violation; those
        violations are the clone's.  Otherwise — in stop mode too, when
        no slice reports — it reaches ``start + horizon`` and the whole
        suite checks it.  ``index`` is the session input the clone runs
        (0 = the null probe), for the log record alone.
        """
        start = clone.sim.now
        if config.stop_at_first_fault:
            for fraction in STOP_SLICES:
                clone.run(until=start + config.horizon * fraction)
                violations = self._suite.check_monotone(context)
                if violations:
                    _log.debug(
                        "early_stop %s input=%d t=%.3f/%.3f",
                        config.node, index, clone.sim.now - start,
                        config.horizon,
                    )
                    return violations
        clone.run(until=start + config.horizon)
        return self._suite.check_all(context)

    def _make_program(self, config: ExplorationConfig, peer: str,
                      report: NodeExplorationReport):
        inputs = itertools.count(1)

        def program(sym_input: SymBytes):
            index = next(inputs)
            summary = summarize_input(sym_input.concrete)
            with closing(self._new_clone(config.seed)) as clone:
                router = clone.processes[config.node]
                context = CheckContext(
                    clone=clone,
                    node=config.node,
                    sharing=self._sharing_for(clone),
                    input_summary=summary,
                    peer=peer,
                    node_memo=self._node_memos.setdefault(config.node, {}),
                )
                self._suite.prepare_all(context)
                escaped: Exception | None = None
                try:
                    router.handle_raw(peer, sym_input)
                except Exception as exc:  # noqa: BLE001 - escaped = harness data
                    escaped = exc
                context.exploration_exception = escaped
                violations = self._run_checked(config, clone, context, index)
            for violation in violations:
                report.violations.append((violation, summary))
            if escaped is not None:
                raise escaped
            return len(violations)

        return program

    # -- route-selection exploration --

    def explore_selection(
        self,
        node: str,
        max_executions: int = 40,
        seed: int = 0,
        prefix=None,
    ) -> SelectionReport:
        """Systematically explore decision-process outcomes at ``node``.

        Plants a symbolic LOCAL_PREF in the attribute set of every
        candidate route for one multi-candidate prefix, then lets the
        concolic engine negate the comparison branches inside
        :func:`repro.bgp.decision.compare_routes` — each satisfying
        assignment drives selection to a different outcome.
        """
        report = SelectionReport(node=node)
        with closing(self._new_clone(seed)) as probe:
            router = probe.processes[node]
            target = (prefix if prefix is not None
                      else self._multi_candidate_prefix(router))
            if target is None:
                report.skipped_reason = f"{node} has no multi-candidate prefix"
                return report
            candidate_peers = sorted(
                peer
                for peer, rib in router.adj_rib_in.items()
                if rib.get(target) is not None
            )
            initial = bytearray()
            for peer in candidate_peers:
                route = router.adj_rib_in[peer].get(target)
                lp = route.attributes.local_pref
                value = int(lp) if lp is not None else 100
                initial.extend(value.to_bytes(4, "big"))
        report.prefix = str(target)
        report.candidates = len(candidate_peers)
        outcomes: list[str] = []

        def program(sym_input: SymBytes):
            with closing(self._new_clone(seed)) as clone:
                clone_router = clone.processes[node]
                for index, peer in enumerate(candidate_peers):
                    rib = clone_router.adj_rib_in[peer]
                    route = rib.get(target)
                    if route is None:
                        continue
                    base = 4 * index
                    local_pref = (
                        (sym_input[base] << 24)
                        | (sym_input[base + 1] << 16)
                        | (sym_input[base + 2] << 8)
                        | sym_input[base + 3]
                    )
                    if not isinstance(local_pref, SymInt):
                        continue
                    # Routes are shared with the snapshot and its other
                    # clones: plant the value on a copy, in this RIB
                    # only.
                    rib.update(route.with_attributes(
                        route.attributes.replace(local_pref=local_pref)
                    ))
                clone_router.rerun_decision([target])
                best = clone_router.loc_rib.get(target)
            winner = "none" if best is None else (best.peer or "local")
            outcomes.append(winner)
            return winner

        seed_input = SymBytes.mark_all(bytes(initial), prefix="lp")
        engine = ConcolicEngine(
            program,
            solver=Solver(seed=derive_seed(seed, "selection-solver")),
        )
        result = engine.explore([seed_input], max_executions)
        report.executions = result.executions
        report.outcomes = sorted(set(outcomes))
        report.distinct_outcomes = len(report.outcomes)
        return report

    @staticmethod
    def _multi_candidate_prefix(router):
        counts: dict = {}
        for rib in router.adj_rib_in.values():
            for route in rib.routes():
                counts[route.prefix] = counts.get(route.prefix, 0) + 1
        for prefix in sorted(counts):
            if counts[prefix] >= 2:
                return prefix
        return None
