"""Offline testing of the message parser.

Section 2, mitigation (ii): DiCE focuses online exploration on
state-changing code "whereas other code such as message parsers could be
tested offline".  This module is that offline harness: it drives
``decode_message`` standalone — no network, no snapshot, no clone — with
concolic exploration, grammar fuzzing and corpus replay, and triages the
outcomes.

Verdicts per input:

* ``ok`` — decoded cleanly;
* ``protocol_error`` — rejected with a proper NOTIFICATION-mapped
  :class:`~repro.bgp.errors.BGPError` (good behaviour);
* ``crash`` — any other exception escaped the decoder (a parser bug).

A healthy parser never produces ``crash``; the test suite locks that in
for hundreds of thousands of generated inputs, and the harness exists so
downstream users can regression-test their own parser changes cheaply.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.bgp.errors import BGPError
from repro.bgp.messages import decode_message
from repro.concolic.engine import ConcolicEngine
from repro.concolic.grammar import UpdateGrammar
from repro.concolic.solver import Solver
from repro.concolic.symbolic import SymBytes

VERDICT_OK = "ok"
VERDICT_PROTOCOL_ERROR = "protocol_error"
VERDICT_CRASH = "crash"


@dataclass(frozen=True)
class ParserFinding:
    """One crash found by the offline harness."""

    data: bytes
    exception: str
    via: str  # "concolic" | "random" | "corpus"

    def hexdump(self) -> str:
        """Compact hex rendering for reports."""
        body = self.data.hex()
        return body if len(body) <= 96 else body[:93] + "..."


@dataclass
class OfflineReport:
    """Aggregate outcome of one offline session."""

    inputs: int = 0
    ok: int = 0
    protocol_errors: int = 0
    crashes: list[ParserFinding] = field(default_factory=list)
    unique_paths: int = 0
    branch_coverage: int = 0
    duration: float = 0.0
    error_subcodes: dict[tuple[int, int], int] = field(default_factory=dict)

    def summary(self) -> str:
        """One-paragraph rendering."""
        lines = [
            f"offline parser test: {self.inputs} inputs in "
            f"{self.duration:.2f}s — {self.ok} ok, "
            f"{self.protocol_errors} protocol errors, "
            f"{len(self.crashes)} crashes",
            f"paths={self.unique_paths} branch coverage="
            f"{self.branch_coverage}",
        ]
        if self.error_subcodes:
            codes = ", ".join(
                f"{code}/{subcode}x{count}"
                for (code, subcode), count in sorted(
                    self.error_subcodes.items()
                )
            )
            lines.append(f"error (code/subcode) histogram: {codes}")
        for finding in self.crashes[:5]:
            lines.append(f"CRASH via {finding.via}: {finding.exception} "
                         f"[{finding.hexdump()}]")
        return "\n".join(lines)


class OfflineParserTester:
    """Standalone decoder testing: concolic + random + corpus replay."""

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._corpus: list[bytes] = []

    def add_corpus(self, samples: list[bytes]) -> None:
        """Add regression inputs replayed on every run."""
        self._corpus.extend(samples)

    def _classify(self, report: OfflineReport, data: bytes,
                  exception: Exception | None, via: str) -> None:
        report.inputs += 1
        if exception is None:
            report.ok += 1
            return
        if isinstance(exception, BGPError):
            report.protocol_errors += 1
            key = (exception.code, exception.subcode)
            report.error_subcodes[key] = report.error_subcodes.get(key, 0) + 1
            return
        report.crashes.append(
            ParserFinding(data=data, exception=repr(exception), via=via)
        )

    def run(self, budget: int = 300, grammar_seeds: int = 5) -> OfflineReport:
        """One full offline session within ``budget`` decoder executions."""
        started = time.perf_counter()
        report = OfflineReport()
        self._replay_corpus(report)
        remaining = max(0, budget - report.inputs)
        concolic_budget = remaining * 2 // 3
        random_budget = remaining - concolic_budget
        self._run_concolic(report, concolic_budget, grammar_seeds)
        self._run_random(report, random_budget)
        report.duration = time.perf_counter() - started
        return report

    def _replay_corpus(self, report: OfflineReport) -> None:
        for sample in self._corpus:
            exception = None
            try:
                decode_message(sample)
            except Exception as exc:  # noqa: BLE001 - triaged below
                exception = exc
            self._classify(report, sample, exception, via="corpus")

    def _run_concolic(self, report: OfflineReport, budget: int,
                      grammar_seeds: int) -> None:
        if budget <= 0:
            return

        def program(sym: SymBytes):
            # Protocol errors are *expected* decoder behaviour: classify
            # them here so the engine's crash list contains only genuine
            # parser bugs (everything that escapes).
            try:
                decode_message(sym)
            except BGPError as error:
                self._classify(report, sym.concrete, error, via="concolic")
                return VERDICT_PROTOCOL_ERROR
            self._classify(report, sym.concrete, None, via="concolic")
            return VERDICT_OK

        grammar = UpdateGrammar(rng=random.Random(self._seed))
        seeds = [
            generated.symbolic(prefix="u")
            for generated in grammar.generate_many(grammar_seeds)
        ]
        result = ConcolicEngine(program, Solver(seed=self._seed)).explore(
            seeds, budget
        )
        report.unique_paths += result.unique_paths
        report.branch_coverage = max(
            report.branch_coverage, result.branch_coverage
        )
        for execution in result.crashes:
            self._classify(
                report,
                execution.input.concrete,
                execution.exception,
                via="concolic",
            )

    def _run_random(self, report: OfflineReport, budget: int) -> None:
        if budget <= 0:
            return
        rng = random.Random(self._seed + 1)
        grammar = UpdateGrammar(rng=random.Random(self._seed + 2))
        for _ in range(budget):
            data = bytearray(grammar.generate().data)
            for _ in range(rng.randint(1, 6)):
                data[rng.randrange(len(data))] = rng.randint(0, 255)
            sample = bytes(data)
            exception = None
            try:
                decode_message(sample)
            except Exception as exc:  # noqa: BLE001 - triaged below
                exception = exc
            self._classify(report, sample, exception, via="random")
