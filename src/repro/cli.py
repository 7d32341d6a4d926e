"""Command-line interface.

Four subcommands cover the operator-facing workflows:

* ``campaign`` — build a topology (built-in name or config file + link
  list), converge it, run a DiCE campaign, print the dashboard and
  optionally save the JSON report;
* ``remote-worker`` — run a long-lived exploration worker daemon that
  ``campaign --transport socket`` dispatches tasks to;
* ``offline-parser`` — run the offline message-parser harness;
* ``topology`` — print a topology's tier map (Figure 1's static half);
* ``lint`` — run the static invariant linter (determinism, import
  isolation, worker hermeticity, wire-protocol hygiene) over a source
  tree.

Examples::

    python -m repro campaign --topology demo27 --inputs 10 --nodes tr-1
    python -m repro campaign --topology quickstart --report /tmp/out.json
    python -m repro remote-worker --port 7411
    python -m repro campaign --transport socket \\
        --remote-workers 127.0.0.1:7411,127.0.0.1:7412
    python -m repro offline-parser --budget 500
    python -m repro topology --topology demo27
    python -m repro lint src --json /tmp/lint.json
"""

from __future__ import annotations

import argparse
import sys

from repro import DiceOrchestrator, OrchestratorConfig, quickstart_system
from repro.checks import default_property_suite
from repro.core.live import LiveSystem
from repro.core.offline import OfflineParserTester
from repro.core.parallel import TRANSPORTS
from repro.core.reporting import save_campaign
from repro.viz import render_campaign, render_live_system, render_topology

from repro.topo.gadgets import GADGETS

_BUILTIN_TOPOLOGIES = ("quickstart", "demo27", *GADGETS)


def _build_live(name: str, seed: int):
    """Build a named topology; returns (live, topology-or-None)."""
    if name == "quickstart":
        return quickstart_system(seed=seed), None
    if name == "demo27":
        from repro.topo.demo27 import build_demo27

        topology = build_demo27()
        return (
            LiveSystem.build(topology.configs, topology.links, seed=seed),
            topology,
        )
    if name in GADGETS:
        configs, links = GADGETS[name]()
        return LiveSystem.build(configs, links, seed=seed), None
    raise SystemExit(
        f"unknown topology {name!r}; choose from "
        f"{', '.join(_BUILTIN_TOPOLOGIES)}"
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    remote_workers = _parse_remote_workers(args.remote_workers)
    if args.transport == "socket" and not remote_workers:
        raise SystemExit(
            "error: --transport socket requires --remote-workers "
            "HOST:PORT,... (start daemons with `repro remote-worker`)"
        )
    live, topology = _build_live(args.topology, args.seed)
    if topology is not None:
        print(render_topology(topology))
        print()
    deadline = 600.0
    if args.differential != "off":
        # The oracle pre-pass diffs the *final* state, so wait out
        # MRAI flushes and damping reuse timers, not just RIB quiet.
        from repro.differential.extract import settle_live

        converged_at = settle_live(live, deadline=deadline)
    else:
        converged_at = live.converge(deadline=deadline)
    print(_convergence_line(converged_at, deadline))
    print(render_live_system(live))
    print()
    dice = DiceOrchestrator(live, default_property_suite())
    result = dice.run_campaign(
        OrchestratorConfig(
            inputs_per_node=args.inputs,
            cycles=args.cycles,
            strategy=args.strategy,
            explorer_nodes=args.nodes if args.nodes else None,
            horizon=args.horizon,
            seed=args.seed,
            workers=args.workers,
            frontier_shards=args.frontier_shards,
            transport=args.transport,
            remote_workers=remote_workers,
            max_worker_failures=args.max_worker_failures,
            differential=args.differential,
        )
    )
    print(render_campaign(result))
    if args.report:
        save_campaign(result, args.report)
        print(f"\nJSON report written to {args.report}")
    return 1 if (args.fail_on_fault and result.reports) else 0


def _convergence_line(converged_at: float, deadline: float) -> str:
    """What the operator is told about convergence.

    ``LiveSystem.converge`` and ``settle_live`` return the clock they
    stopped at, which is the deadline (or a settle window past it) when
    the system never quiesced — an oscillating gadget — so that clock
    is not a convergence time.
    """
    if converged_at >= deadline:
        return f"did not converge by t={deadline:.1f}s"
    return f"converged at t={converged_at:.1f}s"


def _parse_remote_workers(text: str | None) -> list[str] | None:
    """Split a comma-separated host:port list; None stays None.  A
    malformed address is an error here, before the live system is
    built."""
    from repro.core.remote import parse_address

    if not text:
        return None
    addresses = [piece.strip() for piece in text.split(",") if piece.strip()]
    for address in addresses:
        try:
            parse_address(address)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None
    return addresses


def _cmd_remote_worker(args: argparse.Namespace) -> int:
    from repro.core.remote import serve_worker

    return serve_worker(args.host, args.port)


def _cmd_offline_parser(args: argparse.Namespace) -> int:
    tester = OfflineParserTester(seed=args.seed)
    report = tester.run(budget=args.budget)
    print(report.summary())
    return 1 if report.crashes else 0


def _cmd_topology(args: argparse.Namespace) -> int:
    _, topology = _build_live(args.topology, args.seed)
    if topology is None:
        print(f"{args.topology} has no tiered structure to render")
        return 0
    print(render_topology(topology))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Local import: the linter is pure stdlib-ast and must stay
    # importable without (and independent of) the runtime packages.
    from repro.analysis.cli import run_lint

    return run_lint(args)


def _positive_int(text: str) -> int:
    """argparse type for knobs that must be >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _port(text: str) -> int:
    """argparse type for a TCP port to listen on (0 = ephemeral)."""
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"must be in 0..65535, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type for knobs that must be >= 0.

    Rejecting negatives matters for --max-worker-failures: an operator
    typing -1 for "unlimited" must get a parse error, not a silent
    clamp to 0 — the strict fail-fast mode, the opposite intent.
    """
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DiCE: online testing of federated distributed systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    campaign = sub.add_parser("campaign", help="run a DiCE campaign")
    campaign.add_argument("--topology", default="quickstart",
                          choices=_BUILTIN_TOPOLOGIES)
    campaign.add_argument("--inputs", type=int, default=20,
                          help="exploration inputs per node")
    campaign.add_argument("--cycles", type=int, default=1)
    campaign.add_argument("--strategy", default="concolic",
                          choices=("concolic", "random", "grammar"))
    campaign.add_argument("--nodes", nargs="*", default=None,
                          help="explorer nodes (default: all)")
    campaign.add_argument("--horizon", type=float, default=5.0,
                          help="clone propagation horizon (sim seconds)")
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument("--workers", type=int, default=None,
                          help="exploration worker slots "
                               "(default: one per CPU; 1 = inline in "
                               "this process, the serial reference)")
    campaign.add_argument("--frontier-shards", type=_positive_int,
                          default=1, metavar="N",
                          help="max shard tasks per session round; > 1 "
                               "splits each session's frontier into "
                               "parallel shard tasks with work stealing "
                               "at round boundaries (results depend on N "
                               "but not on the worker count)")
    campaign.add_argument("--transport", default="local",
                          choices=TRANSPORTS,
                          help="where exploration tasks run: in-process "
                               "pools (local), the remote protocol "
                               "in-process (loopback), or repro "
                               "remote-worker daemons (socket); results "
                               "are identical across transports")
    campaign.add_argument("--remote-workers", default=None,
                          metavar="HOST:PORT,...",
                          help="comma-separated remote-worker daemon "
                               "addresses, one worker slot each "
                               "(required with --transport socket)")
    campaign.add_argument("--max-worker-failures", type=_non_negative_int,
                          default=None,
                          metavar="N",
                          help="worker slots the campaign may lose before "
                               "failing; a dead slot's tasks are "
                               "dispatched again on survivors, results "
                               "unchanged "
                               "(default: all but one slot; 0 disables "
                               "failover)")
    campaign.add_argument("--differential", default="off",
                          choices=("off", "reference", "bird"),
                          help="check the converged live system against "
                               "an independent oracle before exploring: "
                               "'reference' (pure-python fixpoint, always "
                               "available) or 'bird' (real BIRD daemons "
                               "in network namespaces); divergences are "
                               "reported as model_divergence faults")
    campaign.add_argument("--report", default=None,
                          help="write JSON report to this path")
    campaign.add_argument("--fail-on-fault", action="store_true",
                          help="exit non-zero when faults are found")
    campaign.set_defaults(handler=_cmd_campaign)

    worker = sub.add_parser(
        "remote-worker",
        help="run a long-lived exploration worker daemon",
    )
    worker.add_argument("--host", default="127.0.0.1",
                        help="interface to listen on")
    worker.add_argument("--port", type=_port, default=0,
                        help="TCP port (0 = ephemeral; the bound "
                             "address is printed at startup)")
    worker.set_defaults(handler=_cmd_remote_worker)

    offline = sub.add_parser("offline-parser",
                             help="offline message-parser testing")
    offline.add_argument("--budget", type=int, default=300)
    offline.add_argument("--seed", type=int, default=0)
    offline.set_defaults(handler=_cmd_offline_parser)

    topo = sub.add_parser("topology", help="print a topology")
    topo.add_argument("--topology", default="demo27",
                      choices=_BUILTIN_TOPOLOGIES)
    topo.add_argument("--seed", type=int, default=0)
    topo.set_defaults(handler=_cmd_topology)

    from repro.analysis.cli import configure_parser as _configure_lint

    lint = sub.add_parser(
        "lint",
        help="run the static invariant linter (DET/ISO/HRM/WIRE rules)",
    )
    _configure_lint(lint)
    lint.set_defaults(handler=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
