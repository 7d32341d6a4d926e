"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.topology == "quickstart"
        assert args.inputs == 20

    def test_unknown_topology_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--topology", "atlantis"])

    def test_pipeline_flag(self, capsys):
        """Every capture runs on the campaign's own thread when it is
        needed; there is no capture thread to switch, so a script still
        passing either flag fails loudly."""
        for flag in ("--pipeline", "--no-pipeline"):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(["campaign", flag])
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        assert not hasattr(build_parser().parse_args(["campaign"]),
                           "pipeline")

    @pytest.mark.parametrize("flags", [
        ["--solver-cache-size", "512"],
        ["--share-solver-caches"],
        ["--no-share-solver-caches"],
    ])
    def test_solver_cache_flags_are_gone(self, flags, capsys):
        """Every query is solved; there is no cache to size or share,
        so a script still passing the old flags fails loudly."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["campaign", *flags])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_transport_flags(self):
        args = build_parser().parse_args(["campaign"])
        assert args.transport == "local"
        assert args.remote_workers is None
        args = build_parser().parse_args([
            "campaign", "--transport", "socket",
            "--remote-workers", "127.0.0.1:7411, 127.0.0.1:7412",
        ])
        assert args.transport == "socket"
        from repro.cli import _parse_remote_workers

        assert _parse_remote_workers(args.remote_workers) == [
            "127.0.0.1:7411", "127.0.0.1:7412",
        ]

    def test_unknown_transport_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "--transport", "carrier-pigeon"]
            )

    def test_frontier_shards_is_the_only_frontier_setting(self):
        """The frontier pops breadth-first: a shard count is all there
        is to set."""
        args = build_parser().parse_args(["campaign", "--frontier-shards", "3"])
        assert args.frontier_shards == 3
        assert not hasattr(args, "frontier")

    def test_max_worker_failures_flag(self):
        args = build_parser().parse_args(["campaign"])
        assert args.max_worker_failures is None  # auto: all but one
        args = build_parser().parse_args(
            ["campaign", "--max-worker-failures", "0"]
        )
        assert args.max_worker_failures == 0
        args = build_parser().parse_args(
            ["campaign", "--max-worker-failures", "3"]
        )
        assert args.max_worker_failures == 3

    def test_negative_max_worker_failures_rejected(self):
        """-1 must not silently become strict fail-fast mode."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "--max-worker-failures", "-1"]
            )

    def test_remote_worker_defaults(self):
        args = build_parser().parse_args(["remote-worker"])
        assert args.host == "127.0.0.1"
        assert args.port == 0

    @pytest.mark.parametrize("port", [0, 1, 65535])
    def test_remote_worker_port_in_range_accepted(self, port):
        args = build_parser().parse_args(["remote-worker", "--port", str(port)])
        assert args.port == port

    @pytest.mark.parametrize("port", ["70000", "65536", "-1"])
    def test_remote_worker_port_out_of_range_rejected(self, port, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["remote-worker", "--port", port])
        assert exit_info.value.code == 2
        assert "0..65535" in capsys.readouterr().err


class TestCampaignCommand:
    def test_healthy_campaign_exit_zero(self, capsys):
        code = main([
            "campaign", "--topology", "quickstart", "--inputs", "4",
            "--nodes", "r2", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "DiCE campaign summary" in out
        assert "no faults detected" in out

    def test_report_written(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = main([
            "campaign", "--topology", "quickstart", "--inputs", "3",
            "--nodes", "r2", "--report", str(path),
        ])
        assert code == 0
        data = json.loads(path.read_text())
        assert data["summary"]["snapshots_taken"] == 1

    def test_loopback_transport_campaign(self, tmp_path, capsys):
        """Over the wire or inline, a report states the same findings:
        fault classes and per-node counters."""

        def report(name, *extra):
            path = tmp_path / name
            code = main([
                "campaign", "--topology", "quickstart", "--inputs", "3",
                "--nodes", "r2", "--report", str(path), *extra,
            ])
            assert code == 0
            data = json.loads(path.read_text())
            return (data["summary"]["fault_classes_found"],
                    data["node_reports"])

        serial = report("serial.json", "--workers", "1")
        assert "via loopback transport" not in capsys.readouterr().out
        loopback = report("loopback.json", "--workers", "2",
                          "--transport", "loopback")
        assert "via loopback transport" in capsys.readouterr().out
        assert loopback == serial
        assert serial[1][0]["solver_queries"] > 0

    def test_socket_transport_campaign_against_daemon(self, capsys):
        from repro.core.remote import WorkerServer

        with WorkerServer().start() as server:
            host, port = server.address
            code = main([
                "campaign", "--topology", "quickstart", "--inputs", "3",
                "--nodes", "r2", "--transport", "socket",
                "--remote-workers", f"{host}:{port}",
            ])
        assert code == 0
        out = capsys.readouterr().out
        assert "via socket transport" in out
        assert "dispatch wire" in out

    def test_socket_without_workers_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="remote-workers"):
            main(["campaign", "--transport", "socket"])

    def test_malformed_worker_address_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="'127.0.0.1:99999'"):
            main(["campaign", "--transport", "socket",
                  "--remote-workers", "127.0.0.1:7411,127.0.0.1:99999"])

    def test_fail_on_fault_with_bad_gadget(self, capsys):
        code = main([
            "campaign", "--topology", "bad-gadget", "--inputs", "3",
            "--nodes", "r1", "--horizon", "15", "--fail-on-fault",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "policy_conflict" in out
        # BAD GADGET never quiesces: the clock the deadline stopped is
        # not a convergence time.
        assert "did not converge by t=600.0s" in out
        assert "converged at" not in out


class TestConvergenceLine:
    @pytest.mark.parametrize("stopped_at,expected", [
        (12.34, "converged at t=12.3s"),
        (599.9, "converged at t=599.9s"),
        # converge() stops exactly at the deadline; settle_live may run
        # one settle window past it.  Neither clock is a convergence.
        (600.0, "did not converge by t=600.0s"),
        (601.0, "did not converge by t=600.0s"),
    ])
    def test_deadline_clock_is_not_a_convergence_time(self, stopped_at,
                                                      expected):
        from repro.cli import _convergence_line

        assert _convergence_line(stopped_at, deadline=600.0) == expected


class TestOfflineCommand:
    def test_runs_and_reports(self, capsys):
        code = main(["offline-parser", "--budget", "60"])
        assert code == 0
        assert "offline parser test" in capsys.readouterr().out


class TestTopologyCommand:
    def test_demo27_rendering(self, capsys):
        code = main(["topology", "--topology", "demo27"])
        assert code == 0
        assert "27 routers" in capsys.readouterr().out

    def test_untiered_topology_message(self, capsys):
        code = main(["topology", "--topology", "bad-gadget"])
        assert code == 0
        assert "no tiered structure" in capsys.readouterr().out
