"""The campaign's capture source: ordered captures, optionally prefetched.

Snapshots must be captured in the main process — the live system is
singular, and the marker protocol drives its simulator — but nothing
about a capture depends on exploration results.  That makes capture the
classic producer half of a two-stage pipeline: while the campaign
explores the current sessions (on worker slots, or inline on the
campaign's own thread), a background thread can already run the marker
protocol for the *next* captures, hiding capture time behind
exploration exactly the way capture/compute pipelines hide collective
latency behind kernels.

*When* a capture runs is the only thing :class:`SnapshotPipeline`'s
scheduler decides.  The background scheduler (the ``pipeline`` knob,
on by default) prefetches on a producer thread; the same-thread
scheduler runs each capture on the caller, inside
:meth:`~SnapshotPipeline.next_capture`, exactly when it is asked for —
the live system is never touched ahead of need, and every capture
second blocks the campaign unless worker slots are still exploring,
which is the baseline the overlap benchmark compares against.  The
campaign loop is the same either way.

The contract that keeps scheduling invisible to results:

* **Requests are fixed up front and captured strictly in order.**
  ``capture_fn`` runs for one :class:`CaptureRequest` at a time, in
  the campaign's fixed (cycle, node) order, on exactly one thread:
  the producer thread while a background pipeline is open, the
  consumer otherwise.  The live simulator's evolution — and therefore
  every captured snapshot — is bit-identical under both schedulers,
  at any worker count and any wall-clock interleaving.
* **Results are consumed in the same order.**  :meth:`next_capture`
  returns captures in request order (through a bounded queue when
  prefetching); the consumer can never observe a reordering.
* **Bounded prefetch.**  The producer runs at most ``depth`` captures
  ahead of the consumer, so the live system never races arbitrarily far
  ahead of the cycle being explored.
* **Abort drains, never truncates mid-capture.**  :meth:`close` (e.g.
  on ``stop_after_first_fault``) lets an in-flight capture finish,
  discards prefetched captures, and joins the thread — the live system
  is always left outside the marker protocol, never mid-cut.

Errors raised by ``capture_fn`` (e.g. a snapshot deadline) are
re-raised in the consumer thread by :meth:`next_capture`, in order.
Determinism is testable as same-thread-vs-background equality (see
``tests/core/test_pipeline.py``).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.core.snapshot import Snapshot


@dataclass(frozen=True)
class CaptureRequest:
    """One planned capture, positioned in the campaign's serial order."""

    index: int  # global position across the whole campaign
    cycle: int
    node: str


@dataclass
class CapturedSnapshot:
    """One completed capture, tagged for ordered consumption.

    ``detected_at`` is the live simulated time immediately after the
    cut closed — the value fault reports from this snapshot's
    exploration must carry, recorded here because the consumer must not
    read the live clock while the producer thread owns it.

    ``payload`` is the capture-thread-prepared task payload (the
    pickled snapshot, when the pipeline was given a ``prepare_fn``):
    main-thread dispatch then only hands bytes to the executor instead
    of re-serializing the snapshot per task.  When a payload was
    prepared, ``snapshot`` is None — the payload fully replaces it, and
    keeping both would double the bounded queue's peak memory for
    nothing.  ``prepare_wall_s`` is the pickling time, which counts
    toward ``capture_wall_s`` (it is capture-side work hidden behind
    exploration) and is also reported separately in the
    capture-overlap stats.
    """

    index: int
    cycle: int
    node: str
    snapshot: Snapshot | None
    detected_at: float
    capture_wall_s: float
    payload: bytes | None = None
    prepare_wall_s: float = 0.0


# capture_fn returns (snapshot, detected_at); it owns the live system
# for the call.
CaptureFn = Callable[[CaptureRequest], tuple[Snapshot, float]]


class _PipelineError:
    """Sentinel carrying a producer-side exception to the consumer."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException):
        self.error = error


class SnapshotPipeline:
    """Yields the campaign's captures in request order.

    With ``background`` (the default) captures run on a producer
    thread, up to ``depth`` ahead of consumption; without it each
    capture runs on the consumer's thread inside :meth:`next_capture`.

    Determinism contract: captures execute strictly in request order on
    one thread at a time (the only toucher of the live system while the
    pipeline is open), and :meth:`next_capture` yields them in that
    same order — so snapshots, their ``detected_at`` stamps, and the
    live system's evolution do not depend on the scheduler, the
    prefetch depth or consumer timing.

    Use as a context manager; exiting drains and joins the thread.
    """

    def __init__(
        self,
        capture_fn: CaptureFn,
        requests: Sequence[CaptureRequest],
        depth: int = 1,
        prepare_fn: Callable[[Snapshot], bytes] | None = None,
        background: bool = True,
    ):
        self._capture_fn = capture_fn
        self._prepare_fn = prepare_fn
        self._requests = list(requests)
        self._queue: queue.Queue[Any] = queue.Queue(maxsize=max(1, depth))
        self._stop = threading.Event()
        self._consumed = 0
        # Stats for the overlap benchmark: capture-side time (including
        # payload preparation, broken out in prepare_wall_s) vs
        # consumer-side time spent waiting for a capture.  Their
        # difference is the capture time *hidden* behind exploration.
        self.capture_wall_s = 0.0
        self.prepare_wall_s = 0.0
        self.blocked_wall_s = 0.0
        self.captures_completed = 0
        self._thread: threading.Thread | None = None
        if background:
            self._thread = threading.Thread(
                target=self._produce, name="snapshot-pipeline", daemon=True
            )
            self._thread.start()

    def _capture(self, request: CaptureRequest) -> CapturedSnapshot:
        """Run one capture (and its payload preparation), timed."""
        started = time.perf_counter()
        snapshot, detected_at = self._capture_fn(request)
        payload = None
        prepare_elapsed = 0.0
        if self._prepare_fn is not None:
            prepare_started = time.perf_counter()
            payload = self._prepare_fn(snapshot)
            prepare_elapsed = time.perf_counter() - prepare_started
        elapsed = time.perf_counter() - started
        self.capture_wall_s += elapsed
        self.prepare_wall_s += prepare_elapsed
        self.captures_completed += 1
        return CapturedSnapshot(
            index=request.index,
            cycle=request.cycle,
            node=request.node,
            snapshot=None if payload is not None else snapshot,
            detected_at=detected_at,
            capture_wall_s=elapsed,
            payload=payload,
            prepare_wall_s=prepare_elapsed,
        )

    # -- producer side (background thread) --

    def _produce(self) -> None:
        for request in self._requests:
            if self._stop.is_set():
                return
            try:
                item = self._capture(request)
            except BaseException as error:  # noqa: BLE001 - forwarded
                self._put(_PipelineError(error))
                return
            self._put(item)

    def _put(self, item: Any) -> None:
        # Bounded put that stays responsive to close(): a consumer that
        # stopped reading must not wedge the producer forever.
        while not self._stop.is_set():
            try:
                self._queue.put(item, timeout=0.05)
                return
            except queue.Full:
                continue

    # -- consumer side (orchestrator thread) --

    def next_capture(self) -> CapturedSnapshot:
        """The next capture, in request order; blocks until available.

        Re-raises, in order, any exception the capture function raised
        (on the producer thread, when prefetching).
        """
        if self._consumed >= len(self._requests):
            raise IndexError("all requested captures already consumed")
        started = time.perf_counter()
        if self._thread is None:
            item = self._capture(self._requests[self._consumed])
        else:
            item = self._queue.get()
        self.blocked_wall_s += time.perf_counter() - started
        if isinstance(item, _PipelineError):
            self._consumed = len(self._requests)  # poisoned: nothing follows
            raise item.error
        self._consumed += 1
        return item

    def hidden_fraction(self) -> float:
        """Fraction of capture wall time the consumer did not wait for."""
        if self.capture_wall_s <= 0.0:
            return 0.0
        hidden = 1.0 - self.blocked_wall_s / self.capture_wall_s
        return min(1.0, max(0.0, hidden))

    # -- lifecycle --

    def close(self) -> None:
        """Stop producing, drain prefetched captures, join the thread.

        Safe to call at any point (including mid-campaign abort on
        ``stop_after_first_fault``); an in-flight capture completes so
        the live system is never abandoned mid-marker-protocol.
        """
        self._stop.set()
        if self._thread is None:
            return
        while True:
            try:
                self._queue.get_nowait()
            except queue.Empty:
                if not self._thread.is_alive():
                    break
                time.sleep(0.01)
        self._thread.join()

    def __enter__(self) -> "SnapshotPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def plan_captures(nodes: Sequence[str], cycles: int) -> list[CaptureRequest]:
    """The campaign's full capture schedule, in serial-loop order."""
    return [
        CaptureRequest(index=cycle * len(nodes) + position, cycle=cycle,
                       node=node)
        for cycle in range(cycles)
        for position, node in enumerate(nodes)
    ]
