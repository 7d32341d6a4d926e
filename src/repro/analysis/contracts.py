"""Declarative invariants: the data the rules enforce.

This module is a table, not code: per-module import contracts, the
wire-dataclass inventory, the worker entry-point roots, and the entropy
allowlist.  Growing the codebase — a new subpackage, a new task type
shipped over a transport — means extending a tuple here, and the rules
in :mod:`repro.analysis.rules` pick it up.

Each contract names the ``docs/architecture.md`` invariant it encodes,
so a lint finding can always be traced back to the written contract it
enforces.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ImportContract:
    """What a set of modules may (or must never) import.

    ``roots`` are module names; a name covers itself and, when it names
    a package, every submodule.  Three independent checks, each active
    only when its field is non-empty:

    * ``allow_direct`` — a closed allowlist for the *roots' own*
      ``repro.*`` import statements;
    * ``allow_transitive`` — a closed allowlist for every ``repro.*``
      module transitively reachable from the roots;
    * ``forbid`` — namespaces that must be unreachable from the roots,
      however many hops away.
    """

    name: str
    rationale: str
    roots: tuple[str, ...]
    allow_direct: tuple[str, ...] = ()
    allow_transitive: tuple[str, ...] = ()
    forbid: tuple[str, ...] = ()


IMPORT_CONTRACTS: tuple[ImportContract, ...] = (
    ImportContract(
        name="oracle-independence",
        rationale=(
            "the differential oracle re-derives route propagation from "
            "the RFC text; importing the decision/router/RIB machinery "
            "it checks would turn 'two independent derivations agree' "
            "into 'one implementation agrees with itself'"
        ),
        roots=(
            "repro.differential.canonical",
            "repro.differential.reference",
        ),
        # The oracle modules' own imports: wire-level attribute types,
        # addressing, config dataclasses and the filter AST they carry.
        allow_direct=(
            "repro.bgp.attributes",
            "repro.bgp.config",
            "repro.bgp.damping",
            "repro.bgp.ip",
            "repro.bgp.policy_lang",
        ),
        # The closure adds the carrier types config itself pulls in
        # (policy's Filter containers, Route, faults, wire codecs) —
        # never the decision process, the router, or the simulator.
        allow_transitive=(
            "repro.bgp.attributes",
            "repro.bgp.config",
            "repro.bgp.damping",
            "repro.bgp.errors",
            "repro.bgp.faults",
            "repro.bgp.ip",
            "repro.bgp.policy",
            "repro.bgp.policy_lang",
            "repro.bgp.route",
            "repro.bgp.wire",
        ),
        forbid=(
            "repro.bgp.decision",
            "repro.bgp.router",
            "repro.bgp.rib",
            "repro.bgp.fsm",
            "repro.net",
            "repro.core",
            "repro.checks",
            "repro.concolic",
            "repro.topo",
            "repro.viz",
            "repro.differential.extract",
            "repro.differential.bird",
        ),
    ),
    ImportContract(
        name="concolic-self-contained",
        rationale=(
            "the concolic engine drives exploration, so it must never "
            "import the campaign layer that schedules it — that would "
            "be a cycle between explorer and orchestrator (the grammar "
            "may read BGP wire/message types: inputs, not machinery)"
        ),
        roots=("repro.concolic",),
        forbid=(
            "repro.core",
            "repro.net",
            "repro.checks",
            "repro.topo",
            "repro.viz",
            "repro.differential",
        ),
    ),
    ImportContract(
        name="bgp-model-purity",
        rationale=(
            "the BGP model is the system under test; importing the "
            "differential oracle (or the campaign machinery) from it "
            "would let the implementation see its own checker"
        ),
        roots=("repro.bgp",),
        forbid=(
            "repro.differential",
            "repro.core",
            "repro.concolic",
            "repro.checks",
            "repro.viz",
            "repro.analysis",
        ),
    ),
    ImportContract(
        name="util-foundation",
        rationale=(
            "util is the bottom layer (hashing, rng, ids, timers); an "
            "upward import would create a cycle and let determinism "
            "primitives depend on the code they keep deterministic"
        ),
        roots=("repro.util",),
        forbid=(
            "repro.bgp",
            "repro.core",
            "repro.concolic",
            "repro.net",
            "repro.checks",
            "repro.topo",
            "repro.viz",
            "repro.differential",
            "repro.analysis",
        ),
    ),
    ImportContract(
        name="analysis-is-pure",
        rationale=(
            "the linter checks the runtime, so it must never import "
            "it: everything in repro.analysis is stdlib ast over text"
        ),
        roots=("repro.analysis",),
        forbid=(
            "repro.core",
            "repro.concolic",
            "repro.bgp",
            "repro.net",
            "repro.checks",
            "repro.topo",
            "repro.viz",
            "repro.differential",
            "repro.util",
        ),
    ),
)


# -- worker hermeticity -------------------------------------------------------

# Everything transitively importable from these modules runs (or may
# run) inside worker processes via run_task/run_shard; HRM002 holds
# that closure to the hermeticity contract (no os.environ, no module
# globals) so a task's outcome is a pure function of the task.
WORKER_ROOTS: tuple[str, ...] = ("repro.core.parallel",)

# Dataclasses shipped across transports inside pickle frames.  HRM001
# checks each is a dataclass whose fields are annotated with statically
# picklable types.
WIRE_DATACLASSES: dict[str, tuple[str, ...]] = {
    "repro.core.parallel": ("ExplorationTask", "TaskOutcome"),
    "repro.core.explorer": ("ExplorationConfig",),
    "repro.concolic.frontier": ("FrontierShard",),
}

# Annotation tokens that must never appear on a wire-dataclass field:
# they either cannot pickle or smuggle process-local state.
UNPICKLABLE_TOKENS: frozenset[str] = frozenset({
    "socket", "Thread", "Lock", "RLock", "Condition", "Event",
    "Semaphore", "Queue", "Future", "Executor", "Generator", "Iterator",
    "IO", "TextIO", "BinaryIO", "memoryview", "weakref", "module",
    "ModuleType", "Connection", "Pipe",
})

# -- entropy / clock ----------------------------------------------------------

# Modules allowed to touch raw entropy: the seeded-RNG service itself.
ENTROPY_EXEMPT_MODULES: tuple[str, ...] = ("repro.util.rng",)

# The one module allowed to touch sockets: the CRC framing codec and
# the transports built directly on it.
WIRE_MODULES: tuple[str, ...] = ("repro.core.remote",)

# The blessed frame encoder every socket write must go through.
FRAME_ENCODER = "encode_frame"
