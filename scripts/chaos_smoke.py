#!/usr/bin/env python
"""Chaos smoke: SIGKILL a real remote-worker daemon mid-campaign.

The scripted chaos tests (tests/core/test_chaos.py) inject deaths at
exact protocol points; this script is the unscripted complement the CI
``chaos-smoke`` job runs: two genuine ``repro remote-worker`` daemon
*processes*, a demo27 campaign dispatching to both over TCP, and a
watchdog that hard-kills one daemon as soon as it has served a task —
so the death lands mid-campaign at whatever protocol point the race
produces.  Failover must absorb it: the campaign completes, and its
fault classes and per-node counters must equal a serial run's
bit-for-bit, with exactly one worker failure on the ledger.

Usage: PYTHONPATH=src python scripts/chaos_smoke.py
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro import DiceOrchestrator, OrchestratorConfig  # noqa: E402
from repro.checks import default_property_suite  # noqa: E402
from repro.core.live import LiveSystem  # noqa: E402
from repro.core.remote import encode_frame, recv_message  # noqa: E402
from repro.core.reporting import campaign_to_dict  # noqa: E402
from repro.topo.demo27 import build_demo27  # noqa: E402

NODES = ["tr-1", "tr-2", "st-1"]
# Per-node counters a worker death must not change.
COUNTERS = ("node", "executions", "unique_paths", "branch_coverage",
            "clones_created", "crashes", "solver_queries", "solver_sat")


def node_counters(report: dict) -> list[list]:
    """The equality-gated counters of every merged session, in order."""
    return [[node[key] for key in COUNTERS]
            for node in report["node_reports"]]


def start_daemon():
    """Spawn a daemon on an ephemeral port; returns (proc, host:port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "remote-worker",
         "--host", "127.0.0.1", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, cwd=REPO, env=env,
    )
    line = proc.stdout.readline()  # "repro remote-worker listening on h:p"
    if "listening on" not in line:
        proc.kill()
        raise SystemExit(f"daemon failed to start: {line!r}")
    return proc, line.strip().rsplit(" ", 1)[-1]


def tasks_run(address: str) -> int:
    """Ask a daemon how many tasks it has served (a ping side-channel)."""
    host, port = address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=2) as sock:
        # A pong queues behind any in-flight task (the daemon's state
        # lock serializes messages); a long task just delays the
        # answer, which is fine — it still proves tasks_run >= 1.
        sock.settimeout(60)
        sock.sendall(encode_frame(("ping",)))
        received = recv_message(sock)
        if received is None:
            raise ConnectionError("daemon hung up on ping")
        return received[0][1]


def kill_after_first_task(proc, address: str, done: threading.Event):
    """SIGKILL the daemon as soon as it has served one task."""
    while not done.is_set():
        try:
            if tasks_run(address) >= 1:
                proc.kill()
                print(f"chaos: killed daemon at {address} mid-campaign",
                      flush=True)
                return
        except OSError:
            return  # daemon already gone (campaign finished first?)
        time.sleep(0.05)


def run_campaign(**kwargs):
    topology = build_demo27()
    live = LiveSystem.build(topology.configs, topology.links, seed=27)
    live.converge(deadline=600)
    dice = DiceOrchestrator(live, default_property_suite())
    return dice.run_campaign(
        OrchestratorConfig(
            explorer_nodes=NODES, inputs_per_node=5, cycles=2, seed=27,
            **kwargs,
        )
    )


def main() -> int:
    print("serial reference campaign...", flush=True)
    serial = campaign_to_dict(run_campaign(workers=1))

    daemons = [start_daemon(), start_daemon()]
    addresses = [address for _, address in daemons]
    print(f"daemons up at {addresses}", flush=True)
    done = threading.Event()
    victim_proc, victim_address = daemons[1]
    killer = threading.Thread(
        target=kill_after_first_task,
        args=(victim_proc, victim_address, done), daemon=True,
    )
    try:
        killer.start()
        print("socket campaign under chaos...", flush=True)
        chaos = campaign_to_dict(
            run_campaign(transport="socket", remote_workers=addresses)
        )
    finally:
        done.set()
        killer.join(timeout=5)
        for proc, _ in daemons:
            proc.kill()

    serial_summary = serial["summary"]
    chaos_summary = chaos["summary"]
    dispatch = chaos_summary["dispatch_transport"]
    print(json.dumps(dispatch, indent=2, sort_keys=True), flush=True)

    failures = []
    if (serial_summary["fault_classes_found"]
            != chaos_summary["fault_classes_found"]):
        failures.append(
            "fault classes diverged: "
            f"{serial_summary['fault_classes_found']} vs "
            f"{chaos_summary['fault_classes_found']}"
        )
    if node_counters(serial) != node_counters(chaos):
        failures.append(
            "per-node counters diverged: "
            f"{node_counters(serial)} vs {node_counters(chaos)}"
        )
    if dispatch["worker_failures"] != 1:
        failures.append(
            f"expected exactly 1 worker failure, ledger says "
            f"{dispatch['worker_failures']} "
            f"(dead: {dispatch['dead_workers']})"
        )
    if victim_address not in dispatch["dead_workers"]:
        failures.append(
            f"dead-worker ledger {dispatch['dead_workers']} does not "
            f"name the killed daemon {victim_address}"
        )
    if dispatch["tasks_requeued"] < 1:
        failures.append("no tasks were requeued")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr, flush=True)
        return 1
    print(
        "chaos == serial: fault classes "
        f"{chaos_summary['fault_classes_found']}, counters match, "
        f"{dispatch['tasks_requeued']} task(s) requeued after losing "
        f"{dispatch['dead_workers']}",
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
