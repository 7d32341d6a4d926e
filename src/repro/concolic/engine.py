"""The concolic exploration driver (generational search).

Given a *program* (any callable taking a :class:`SymBytes`) and a seed
input, the engine:

1. runs the program, recording the branch sequence;
2. for each branch ``i`` past the execution's bound whose flip the
   frontier has not seen, asks the solver for an input satisfying "path
   prefix up to ``i`` plus the negation of branch ``i``" — every flip
   of one execution against one incremental path condition
   (:func:`~repro.concolic.path.flip_conditions`), so expanding a path
   costs time linear in its length;
3. queues solved children (bound = ``i + 1``, which prevents re-negating
   ancestors — the SAGE dedupe) and repeats until the budget runs out or
   the frontier empties.

Crashes (unexpected exceptions from the program) are first-class results:
DiCE's explorer harvests them as programming-error fault candidates.

The queue and dedup state live in an explicit
:class:`~repro.concolic.frontier.Frontier` value, so a session's
unexplored branches can be shipped to other workers: the discipline is
the frontier's, the budget an argument of :meth:`ConcolicEngine.
run_shard`, and the one setting an engine holds is whether to stop at
the first faulty execution.  :meth:`ConcolicEngine.explore` is the BFS
session over a seed list; :meth:`ConcolicEngine.run_each` runs a
feedback-free input stream (the grammar-only and random-mutation
strategies) with the same path and coverage measurements, so their
numbers are directly comparable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable

from repro.concolic import path as pathmod
from repro.concolic.expr import shape_hash
from repro.concolic.frontier import Frontier, FrontierEntry
from repro.concolic.solver import Solver
from repro.concolic.symbolic import PathRecorder, SymBytes

Program = Callable[[SymBytes], Any]

# Exceptions that indicate harness bugs rather than program behaviour.
_HARNESS_ERRORS = (KeyboardInterrupt, SystemExit, MemoryError)


@dataclass
class Execution:
    """One run of the program on one concrete input."""

    input: SymBytes
    branches: list = field(repr=False)
    result: Any = None
    exception: Exception | None = None
    duration: float = 0.0
    bound: int = 0

    @property
    def crashed(self) -> bool:
        """True when the program raised an unexpected exception."""
        return self.exception is not None

    @property
    def faulted(self) -> bool:
        """True when the run crashed or the program returned a non-zero
        violation count (what a program explored under
        ``stop_at_first_fault`` returns)."""
        return self.crashed or bool(self.result)

    @cached_property
    def signature(self) -> int:
        """Path identity (process-stable 64-bit digest), computed once."""
        return pathmod.signature(self.branches)


@dataclass
class ExplorationResult:
    """Aggregate outcome of one exploration session."""

    executions: int = 0
    unique_paths: int = 0
    crashes: list[Execution] = field(default_factory=list)
    solver_queries: int = 0
    solver_sat: int = 0
    frontier_exhausted: bool = False
    duration: float = 0.0
    # Unique branch constraints seen (offset-sensitive) and unique
    # constraint *shapes* (variable-identity-insensitive; comparable
    # across strategies that mark different offsets).
    branch_coverage: int = 0
    shape_coverage: int = 0


class ConcolicEngine:
    """Generational-search concolic explorer over one program."""

    def __init__(
        self,
        program: Program,
        solver: Solver | None = None,
        *,
        stop_at_first_fault: bool = False,
    ):
        self._program = program
        self._solver = solver if solver is not None else Solver()
        # End a run after its first faulty execution (see
        # :attr:`Execution.faulted`), before its branches are negated.
        self._stop_at_first_fault = stop_at_first_fault

    def run_once(self, sym_input: SymBytes, bound: int = 0) -> Execution:
        """Execute the program once, recording its path."""
        recorder = PathRecorder()
        started = time.perf_counter()
        result = None
        exception: Exception | None = None
        with recorder:
            try:
                result = self._program(sym_input)
            except _HARNESS_ERRORS:
                raise
            except Exception as exc:  # noqa: BLE001 - crashes are data here
                exception = exc
        duration = time.perf_counter() - started
        return Execution(
            input=sym_input,
            branches=recorder.branches,
            result=result,
            exception=exception,
            duration=duration,
            bound=bound,
        )

    def explore(self, seed_inputs: list[SymBytes],
                budget: int = 200) -> ExplorationResult:
        """Run BFS generational search from the given seeds, at most
        ``budget`` (>= 1) executions.  Another discipline is
        ``run_shard(Frontier.from_seeds(seeds, discipline), budget)``."""
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        return self.run_shard(Frontier.from_seeds(seed_inputs), budget)

    def run_shard(self, frontier: Frontier, budget: int) -> ExplorationResult:
        """Run the generational loop over an explicit frontier.

        The primitive everything else composes: ``explore`` runs it
        once over the whole session frontier; the campaign layer runs
        it per shard on whichever worker the shard landed on.  The
        frontier is mutated in place (entries consumed, children and
        dedup digests added) so the caller can ship the leftovers.

        Solver counters are recorded as *deltas* over this call, so
        summing shard results never double-counts a shared solver.
        """
        started = time.perf_counter()
        result = ExplorationResult()
        stats = self._solver.stats
        queries, sat = stats.queries, stats.sat
        while frontier.entries and result.executions < budget:
            entry = frontier.pop()
            execution = self.run_once(entry.input, entry.bound)
            _observe(result, execution, frontier)
            if self._stop_at_first_fault and execution.faulted:
                break
            for child in self._expand(execution, frontier, entry.lineage):
                frontier.push(child)
        result.frontier_exhausted = not frontier.entries
        _close(result, frontier, started)
        result.solver_queries = stats.queries - queries
        result.solver_sat = stats.sat - sat
        return result

    def run_each(self, inputs: Iterable[SymBytes],
                 seen: Frontier) -> ExplorationResult:
        """Run every input once, feedback-free: no branch is negated
        and the solver is never asked.  What the grammar-only and
        random-mutation strategies are, measured exactly as
        :meth:`run_shard` measures a concolic run: paths and coverage
        fold into ``seen``'s dedup sets, in place, and
        ``stop_at_first_fault`` ends the run at its first faulty
        execution, drawing nothing more from ``inputs``."""
        started = time.perf_counter()
        result = ExplorationResult()
        for sym_input in inputs:
            execution = self.run_once(sym_input)
            _observe(result, execution, seen)
            if self._stop_at_first_fault and execution.faulted:
                break
        _close(result, seen, started)
        return result

    def _expand(
        self,
        execution: Execution,
        frontier: Frontier,
        lineage: int,
    ) -> list[FrontierEntry]:
        """Generate child inputs by negating each branch past the bound.

        Two walks over the path, each linear in it: the first digests
        every flip and keeps those the frontier has not seen; the second
        asks the kept ones through one path condition
        (:func:`~repro.concolic.path.flip_conditions`).
        """
        branches = execution.branches
        asked: list[tuple[int, int]] = []
        for index, flip_sig in enumerate(pathmod.flip_signatures(branches)):
            if index < execution.bound or flip_sig in frontier.seen_flips:
                continue
            # Skip branches whose constraint mentions no variables we
            # control (fully concrete subexpressions fold away already,
            # but shadows planted by other layers may appear).
            if not any(True for _ in branches[index][0].variables()):
                continue
            frontier.seen_flips.add(flip_sig)
            asked.append((index, flip_sig))
        hint = {
            var.name: execution.input.concrete[offset]
            for offset, var in execution.input.variables().items()
        }
        conditions = pathmod.flip_conditions(
            branches, [index for index, _ in asked], hint)
        children: list[FrontierEntry] = []
        for (index, flip_sig), condition in zip(asked, conditions):
            model = self._solver.solve(condition)
            if model is None:
                continue
            child_input = execution.input.with_values(model)
            novelty_key = branches[index][0].negated().fp
            children.append(FrontierEntry(
                input=child_input,
                bound=index + 1,
                novel=novelty_key not in frontier.seen_constraints,
                lineage=lineage,
                key=flip_sig,
                novelty_key=novelty_key,
            ))
        return children


def _observe(result: ExplorationResult, execution: Execution,
             seen: Frontier) -> None:
    """Account one execution: count it, fold its branches into the
    coverage sets, dedup its path, collect a crash."""
    result.executions += 1
    for constraint, _ in execution.branches:
        fp = constraint.fp
        # One fingerprint, one tree, one shape: only a constraint not
        # seen before can add a shape.
        if fp not in seen.seen_constraints:
            seen.seen_constraints.add(fp)
            seen.seen_shapes.add(shape_hash(constraint))
    sig = execution.signature
    if sig not in seen.seen_paths:
        seen.seen_paths.add(sig)
        result.unique_paths += 1
    if execution.crashed:
        result.crashes.append(execution)


def _close(result: ExplorationResult, seen: Frontier, started: float) -> None:
    result.branch_coverage = len(seen.seen_constraints)
    result.shape_coverage = len(seen.seen_shapes)
    result.duration = time.perf_counter() - started
