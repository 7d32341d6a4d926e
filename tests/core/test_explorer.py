"""Tests for the per-node explorer."""

import pytest

from repro.checks import default_property_suite
from repro.core.explorer import (
    ExplorationConfig,
    Explorer,
    STRATEGY_GRAMMAR,
    STRATEGY_RANDOM,
    summarize_input,
)
from repro.core.sharing import SharingRegistry


def make_explorer(live):
    snapshot = live.coordinator.capture("r2")
    claims = SharingRegistry.from_configs(live.initial_configs)
    return Explorer(snapshot, default_property_suite(), claims)


def track_clones(explorer, on_clone=lambda clone: None):
    """Every clone ``explorer`` makes from now on, in order; each is
    shown to ``on_clone`` while still open."""
    clones = []
    make_clone = explorer._new_clone

    def tracked(seed):
        clones.append(make_clone(seed))
        on_clone(clones[-1])
        return clones[-1]

    explorer._new_clone = tracked
    return clones


def track_probes(explorer, on_probe=lambda network: None):
    """Every one-router network ``explorer`` restores to read a
    checkpoint, in order; each is shown to ``on_probe`` while open."""
    from contextlib import contextmanager

    probes = []
    probe_router = explorer._probe_router

    @contextmanager
    def tracked(node):
        with probe_router(node) as router:
            probes.append(router.network)
            on_probe(probes[-1])
            yield router

    explorer._probe_router = tracked
    return probes


class TestConfig:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            ExplorationConfig(node="r2", strategy="psychic")


class TestSummarize:
    def test_valid_update(self, converged3):
        import random

        from repro.concolic.grammar import UpdateGrammar

        generated = UpdateGrammar(rng=random.Random(1)).generate()
        summary = summarize_input(generated.data)
        assert "UpdateMessage" in summary

    def test_malformed(self):
        assert "malformed" in summarize_input(b"\x00" * 19)

    def test_undecodable_never_raises(self):
        assert summarize_input(b"")


class TestExplore:
    def test_basic_exploration(self, converged3):
        explorer = make_explorer(converged3)
        report = explorer.explore(
            ExplorationConfig(node="r2", inputs=15, seed=1)
        )
        assert report.executions == 15
        assert report.unique_paths > 1
        assert report.branch_coverage > 10
        assert report.clones_created >= 15
        assert report.skipped_reason is None

    def test_exploration_never_touches_live(self, converged3):
        state_before = {
            name: converged3.router(name).export_state()
            for name in ("r1", "r2", "r3")
        }
        crash_before = sum(r.crash_count for r in converged3.routers())
        explorer = make_explorer(converged3)
        explorer.explore(ExplorationConfig(node="r2", inputs=20, seed=2))
        for name in ("r1", "r2", "r3"):
            router = converged3.router(name)
            assert set(router.loc_rib.prefixes()) == {
                # a list of routes since the bulk-restore change
                route.prefix for route in state_before[name]["loc_rib"]
            }
        assert sum(r.crash_count for r in converged3.routers()) == crash_before

    def test_strategies_all_run(self, converged3):
        for strategy in (STRATEGY_RANDOM, STRATEGY_GRAMMAR):
            explorer = make_explorer(converged3)
            report = explorer.explore(
                ExplorationConfig(
                    node="r2", inputs=8, strategy=strategy, seed=3
                )
            )
            assert report.executions == 8
            assert report.strategy == strategy

    def test_unestablished_node_skipped(self, live3):
        # Snapshot before any session comes up.
        snapshot = live3.coordinator.capture_atomic("r2")
        claims = SharingRegistry.from_configs(live3.initial_configs)
        explorer = Explorer(snapshot, default_property_suite(), claims)
        report = explorer.explore(ExplorationConfig(node="r2", inputs=5))
        assert report.executions == 0
        assert report.skipped_reason is not None

    def test_peer_and_branch_cap_are_not_settings(self):
        # The explorer impersonates the first established peer, and
        # every run records at most MAX_BRANCHES branches.
        with pytest.raises(TypeError):
            ExplorationConfig(node="r2", peer="r3")
        with pytest.raises(TypeError):
            ExplorationConfig(node="r2", max_branches_per_run=10)

    def test_first_established_peer_impersonated(self, converged3):
        explorer = make_explorer(converged3)
        peers = []
        make_program = explorer._make_program

        def tracked(config, peer, report):
            peers.append(peer)
            return make_program(config, peer, report)

        explorer._make_program = tracked
        report = explorer.explore(
            ExplorationConfig(node="r2", inputs=5, seed=4)
        )
        assert report.executions == 5
        established = converged3.router("r2").established_peers()
        assert len(established) == 2
        assert peers == [established[0]]

    def test_crash_bug_found_and_reported(self, converged3_with_bug):
        explorer = make_explorer(converged3_with_bug)
        report = explorer.explore(
            ExplorationConfig(node="r2", inputs=250, seed=11,
                              grammar_seeds=5)
        )
        classes = {v.fault_class for v, _ in report.violations}
        assert "programming_error" in classes


class TestSessionIgnoresProcessHistory:
    """Routers keep decoded messages and attribute sets in tables (one
    object per distinct value, ``Network.interned``).  A table belongs to
    one network, so a clone starts with none of what an earlier clone,
    session or the live system learnt — and a session must come out the
    same whatever ran before it in the process."""

    def session(self, snapshot, claims, monkeypatch, seed):
        from repro.concolic.engine import ConcolicEngine

        executions = []
        run_once = ConcolicEngine.run_once

        def recording(engine, sym_input, bound=0):
            execution = run_once(engine, sym_input, bound)
            executions.append((
                execution.input.concrete,
                execution.signature,
                [(constraint.fp, taken)
                 for constraint, taken in execution.branches],
                type(execution.exception).__name__,
            ))
            return execution

        with monkeypatch.context() as patch:
            patch.setattr(ConcolicEngine, "run_once", recording)
            report = Explorer(
                snapshot, default_property_suite(), claims
            ).explore(ExplorationConfig(node="r2", inputs=40, seed=seed,
                                        grammar_seeds=3))
        outcome = dict(vars(report))
        del outcome["wall_time_s"]
        return executions, outcome

    def test_cold_and_after_another_session(self, converged3_with_bug,
                                            monkeypatch):
        live = converged3_with_bug
        snapshot = live.coordinator.capture("r2")
        claims = SharingRegistry.from_configs(live.initial_configs)
        cold = self.session(snapshot, claims, monkeypatch, seed=11)
        assert len(cold[0]) == 40
        assert any(branches for _, _, branches, _ in cold[0])
        assert cold[1]["violations"]
        self.session(snapshot, claims, monkeypatch, seed=12)  # warms what it can
        live.run(until=live.network.sim.now + 40)  # keepalives, live tables
        assert self.session(snapshot, claims, monkeypatch, seed=11) == cold

    def test_a_clone_starts_with_empty_tables(self, converged3):
        assert converged3.network.interned
        explorer = make_explorer(converged3)
        clones = track_clones(
            explorer, on_clone=lambda clone: sizes.append(len(clone.interned))
        )
        sizes = []
        explorer.explore(ExplorationConfig(node="r2", inputs=3, seed=1))
        assert len(clones) == 4 and sizes == [0, 0, 0, 0]


class TestSelectionExploration:
    def test_selection_needs_multiple_candidates(self, converged3):
        explorer = make_explorer(converged3)
        # In the line topology r2 has single-candidate prefixes only.
        report = explorer.explore_selection("r2", seed=1)
        assert report.skipped_reason is not None

    def test_selection_explores_outcomes(self):
        """A node with two candidate routes must see >= 2 outcomes."""
        from repro import (
            IPv4Address,
            LiveSystem,
            NeighborConfig,
            Prefix,
            RouterConfig,
        )
        from repro.net.link import LinkProfile

        # Diamond: d originates, a and b both advertise to c.
        prefix = Prefix("10.77.0.0/16")
        configs = [
            RouterConfig(name="d", local_as=100,
                         router_id=IPv4Address("1.0.0.1"),
                         networks=(prefix,),
                         neighbors=(NeighborConfig(peer="a", peer_as=200),
                                    NeighborConfig(peer="b", peer_as=300))),
            RouterConfig(name="a", local_as=200,
                         router_id=IPv4Address("1.0.0.2"),
                         neighbors=(NeighborConfig(peer="d", peer_as=100),
                                    NeighborConfig(peer="c", peer_as=400))),
            RouterConfig(name="b", local_as=300,
                         router_id=IPv4Address("1.0.0.3"),
                         neighbors=(NeighborConfig(peer="d", peer_as=100),
                                    NeighborConfig(peer="c", peer_as=400))),
            RouterConfig(name="c", local_as=400,
                         router_id=IPv4Address("1.0.0.4"),
                         neighbors=(NeighborConfig(peer="a", peer_as=200),
                                    NeighborConfig(peer="b", peer_as=300))),
        ]
        links = [
            ("d", "a", LinkProfile.lan()), ("d", "b", LinkProfile.lan()),
            ("a", "c", LinkProfile.lan()), ("b", "c", LinkProfile.lan()),
        ]
        live = LiveSystem.build(configs, links, seed=5)
        live.converge()
        snapshot = live.coordinator.capture("c")
        claims = SharingRegistry.from_configs(live.initial_configs)
        explorer = Explorer(snapshot, default_property_suite(), claims)
        report = explorer.explore_selection("c", max_executions=30, seed=2)
        assert report.candidates == 2
        assert report.distinct_outcomes >= 2
        assert set(report.outcomes) <= {"a", "b", "none"}


class TestCloneRelease:
    """A clone is a knot of reference cycles (process <-> network,
    timer -> event -> callback -> process).  The explorer closes each
    one it makes, so memory does not depend on when — or whether — the
    cyclic collector runs."""

    @pytest.fixture
    def demo27(self, demo27_topology):
        from repro import LiveSystem

        live = LiveSystem.build(
            demo27_topology.configs, demo27_topology.links, seed=27
        )
        live.converge()
        node = demo27_topology.nodes_in_tier(1)[0]
        snapshot = live.coordinator.capture(node)
        claims = SharingRegistry.from_configs(live.initial_configs)
        explorer = Explorer(snapshot, default_property_suite(), claims)
        return live, node, explorer

    @staticmethod
    def run_without_gc(explorer, session):
        """Run ``session`` with the cyclic collector off and check that
        every router of every clone and single-router probe it made
        died by refcount alone; return the clones."""
        import gc
        import weakref

        from repro.bgp.router import BGPRouter

        def count_routers():
            return sum(isinstance(obj, BGPRouter) for obj in gc.get_objects())

        routers = []

        def watch(network):
            routers.extend(
                weakref.ref(process) for process in network.processes.values()
            )

        clones = track_clones(explorer, watch)
        track_probes(explorer, watch)
        gc.collect()
        before = count_routers()
        gc.disable()
        try:
            session()
            # Refcounts alone freed them: no collection has run.
            assert routers and all(ref() is None for ref in routers)
        finally:
            gc.enable()
        gc.collect()
        assert count_routers() == before
        return clones

    def test_explore_frees_every_clone(self, demo27):
        _, node, explorer = demo27
        reports = []
        probes = track_probes(explorer)
        clones = self.run_without_gc(explorer, lambda: reports.append(
            explorer.explore(ExplorationConfig(
                node=node, inputs=3, seed=1, grammar_seeds=1))
        ))
        # null probe, one per input; the peer pick and the grammar read
        # one restore of the one router, not a clone
        assert len(clones) == reports[0].clones_created == 4
        assert len(probes) == 1
        assert reports[0].executions == 3
        for clone in clones + probes:
            assert clone.processes == {}
            assert list(clone.links()) == []
            assert clone.in_flight() == []
            assert clone.quiescent()

    def test_vet_change_frees_its_clone(self, demo27):
        from repro.bgp.config import AddNetwork
        from repro.bgp.ip import Prefix

        _, node, explorer = demo27
        change = AddNetwork(Prefix("203.0.113.0/24"))
        clones = self.run_without_gc(
            explorer, lambda: explorer.vet_change(node, change)
        )
        assert len(clones) == 1

    def test_explore_selection_frees_probe_and_clones(self, demo27):
        _, node, explorer = demo27
        reports = []
        clones = self.run_without_gc(explorer, lambda: reports.append(
            explorer.explore_selection(node, max_executions=4, seed=2)
        ))
        assert reports[0].skipped_reason is None
        assert len(clones) == 1 + reports[0].executions

    def test_escaped_exception_still_closes_the_clone(
            self, converged3, monkeypatch):
        """An exception escaping the handler is kept as harness data;
        its clone must not be."""
        from repro.bgp.router import BGPRouter

        def handler_blows_up(self, peer, data):
            raise RuntimeError("escaped")

        explorer = make_explorer(converged3)
        clones = track_clones(explorer)
        monkeypatch.setattr(BGPRouter, "handle_raw", handler_blows_up)
        report = explorer.explore(
            ExplorationConfig(node="r2", inputs=2, seed=1, grammar_seeds=2)
        )
        assert report.crashes == 2
        assert all(clone.processes == {} for clone in clones)
