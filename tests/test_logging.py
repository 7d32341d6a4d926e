"""Library logging: ``repro.*`` loggers, silent unless configured."""

import dataclasses
import logging

from repro import DiceOrchestrator, OrchestratorConfig, quickstart_system
from repro.bgp import faults
from repro.checks import default_property_suite


def crash_bug_campaign():
    """The buggy-router quickstart, stopping at its first fault."""
    live = quickstart_system(seed=5)
    router = live.router("r2")
    router.config = dataclasses.replace(
        router.config,
        enabled_bugs=frozenset({faults.BUG_COMMUNITY_CRASH}),
    )
    live.converge()
    result = DiceOrchestrator(live, default_property_suite()).run_campaign(
        OrchestratorConfig(
            inputs_per_node=250, explorer_nodes=["r2"], grammar_seeds=5,
            seed=11, stop_after_first_fault=True,
        )
    )
    assert "programming_error" in result.fault_classes_found()
    return result


def test_package_logger_has_a_null_handler():
    handlers = logging.getLogger("repro").handlers
    assert [type(h) for h in handlers] == [logging.NullHandler]


def test_silent_by_default(capsys):
    crash_bug_campaign()
    assert capsys.readouterr().err == ""


def test_debug_records_name_the_crashed_router(caplog):
    caplog.set_level(logging.DEBUG, logger="repro")
    crash_bug_campaign()
    crashes = [
        record.getMessage() for record in caplog.records
        if record.name == "repro.bgp.router"
        and record.getMessage().startswith("router_crash ")
    ]
    assert crashes
    assert all(message.split()[1] == "r2" for message in crashes)
    assert all(
        record.levelno == logging.DEBUG for record in caplog.records
        if record.name.startswith("repro.")
    )


def test_debug_logging_changes_no_result(caplog):
    """Nothing reads a record back: at ``DEBUG`` the campaign explores
    the same inputs and reports the same faults as when silent."""
    silent = crash_bug_campaign()
    caplog.set_level(logging.DEBUG, logger="repro")
    verbose = crash_bug_campaign()
    assert caplog.records
    assert verbose.inputs_explored == silent.inputs_explored
    assert verbose.clones_created == silent.clones_created
    assert [
        (report.headline(), report.detected_at, report.inputs_explored)
        for report in verbose.reports
    ] == [
        (report.headline(), report.detected_at, report.inputs_explored)
        for report in silent.reports
    ]
