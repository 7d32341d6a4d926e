"""Remote worker transport: exploration tasks over a wire.

The campaign loop scales past one machine by dispatching the already
picklable :class:`~repro.core.parallel.ExplorationTask`s — whole
sessions and frontier shards alike — to long-lived worker daemons
instead of local pool processes.  This module supplies everything
between :class:`~repro.core.parallel.ParallelCampaignEngine`
and those daemons:

* a **frame codec** — length-prefixed pickle frames (4-byte big-endian
  length, 4-byte CRC-32 of the payload, then the pickled message
  tuple), the entire wire format; corruption anywhere decodes to a
  named ``ValueError``, never to silently different content;
* :class:`RemoteWorkerState` — one daemon's worker slot: serialized
  task execution, nothing a campaign could leave behind;
* :class:`LoopbackTransport` — the remote protocol run fully
  in-process: every message round-trips through the frame codec, so
  tests and CI exercise encode/decode without opening sockets;
* :class:`SocketTransport` — the real thing: one persistent TCP
  connection per worker slot, pipelined request/response (frames
  answered in order per connection), a reader thread resolving
  futures, wire-byte accounting;
* :class:`WorkerServer` / :func:`serve_worker` — the ``repro
  remote-worker`` daemon.

Messages (pickled tuples, first element the kind):

=============================================  ==============================
orchestrator → worker                          worker → orchestrator
=============================================  ==============================
``("task", request_id, ExplorationTask)``      ``("outcome", request_id,
                                               TaskOutcome)`` or ``("error",
                                               request_id, summary,
                                               traceback)``
=============================================  ==============================

Determinism contract: a transport changes *where* a task runs, never
results.  A task carries everything it reads (snapshot, config and
seed, suite, claims) and a daemon keeps nothing between tasks but the
decode memo of :mod:`repro.core.payload`, keyed by bytes every task
carries, so fault
reports and per-node counters are bit-identical to serial mode at any
worker count, whichever daemon a task lands on and however many
campaigns share it (gated by ``tests/core/test_remote.py`` and the CI
remote-smoke job).
"""

from __future__ import annotations

import itertools
import pickle
import socket
import struct
import threading
import time
import traceback
import zlib
from collections import deque
from concurrent.futures import Future

from repro.core.parallel import (
    ExplorationTask,
    TaskOutcome,
    WorkerLostError,
    run_task,
)

# Payload length, then CRC-32 of the payload: pickle itself has no
# integrity protection (a flipped byte inside a string silently changes
# content), so the codec carries its own checksum — corruption becomes
# a named decode error the connection layer classifies as a worker
# death, never silently different campaign results.
_HEADER = struct.Struct(">II")
# Sanity bound, not a protocol limit: a task frame is a 0.25-0.8 MiB
# snapshot plus about 1.3 KB of config, suite and claims;
# anything near this is a corrupted length prefix.
MAX_FRAME_BYTES = 256 * 1024 * 1024
# Dialling a worker daemon at campaign start: the per-attempt socket
# timeout, the attempts, and the first backoff between attempts, which
# doubles after each (see _Connection._dial).
CONNECT_TIMEOUT_S = 10.0
CONNECT_ATTEMPTS = 3
CONNECT_BACKOFF_S = 0.1


class RemoteWorkerError(RuntimeError):
    """A task failed on, or was lost by, a remote worker."""


class WorkerDiedError(RemoteWorkerError, WorkerLostError):
    """The worker *slot* died: connection dropped, daemon crashed, or
    the stream desynchronized beyond recovery.

    Distinct from a plain :class:`RemoteWorkerError` error frame (the
    task ran and raised — deterministic, never retried): this mixes in
    :class:`~repro.core.parallel.WorkerLostError`, which is what the
    engine's failover classifies as recoverable by requeueing the
    slot's tasks on a survivor.  ``address`` names the peer when known.
    """

    def __init__(self, message: str,
                 address: tuple[str, int] | str | None = None):
        super().__init__(message)
        self.address = address


# -- frame codec --------------------------------------------------------------


def encode_frame(message: tuple) -> bytes:
    """One message as a length-prefixed, checksummed pickle frame."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound"
        )
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_frame(frame: bytes) -> tuple:
    """Inverse of :func:`encode_frame` (whole frame in hand)."""
    if len(frame) < _HEADER.size:
        raise ValueError("frame shorter than its length prefix")
    length, checksum = _HEADER.unpack_from(frame)
    if length != len(frame) - _HEADER.size:
        raise ValueError(
            f"frame length prefix says {length} payload bytes, got "
            f"{len(frame) - _HEADER.size}"
        )
    return _loads_payload(frame[_HEADER.size:], checksum)


def _loads_payload(payload: bytes, checksum: int) -> tuple:
    """Verify and unpickle a frame payload; corruption is ValueError.

    The CRC catches content corruption pickle would happily decode
    into *different* data; the broad except turns the grab-bag of
    exceptions ``pickle.loads`` raises on garbage opcodes
    (``UnpicklingError``, ``EOFError``, stray ``AttributeError``…)
    into one named, catchable failure mode.
    """
    if zlib.crc32(payload) != checksum:
        raise ValueError(
            f"frame checksum mismatch (payload CRC "
            f"{zlib.crc32(payload):08x}, header says {checksum:08x})"
        )
    try:
        return pickle.loads(payload)
    except Exception as error:
        raise ValueError(
            f"corrupt frame payload ({type(error).__name__}: {error})"
        ) from error


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; None on clean EOF at a boundary."""
    data = bytearray()
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            if not data:
                return None
            raise ConnectionError("connection closed mid-frame")
        data.extend(chunk)
    return bytes(data)


def recv_message(sock: socket.socket) -> tuple[tuple, int] | None:
    """Read one framed message; returns (message, wire bytes) or None
    on clean end-of-stream."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    length, checksum = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(
            f"incoming frame claims {length} bytes; refusing "
            "(corrupted length prefix?)"
        )
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ConnectionError("connection closed mid-frame")
    return _loads_payload(payload, checksum), _HEADER.size + length


def parse_address(address: str | tuple[str, int]) -> tuple[str, int]:
    """Normalize a ``host:port`` string (or pair) to a (host, port).

    An IPv6 host is written bracketed (``[::1]:7411``) and loses its
    brackets.  A missing host or a port outside 1..65535 raises a
    ValueError naming the address, before anything connects.
    """
    if isinstance(address, tuple):
        host, port_text = address
    else:
        host, _, port_text = address.strip().rpartition(":")
        if host.startswith("[") and host.endswith("]"):
            host = host[1:-1]
    try:
        port = int(port_text)
    except ValueError:
        port = 0
    if not host or not 1 <= port <= 65535:
        raise ValueError(
            f"remote worker address {address!r} is not host:port "
            "with a port in 1..65535"
        )
    return host, port


# -- worker side --------------------------------------------------------------


class RemoteWorkerState:
    """One worker daemon's slot.

    Tasks execute under a lock, strictly serialized: a daemon is one
    worker *slot*, however many connections it serves.  Nothing a task
    does outlives it — :func:`~repro.core.parallel.run_task` is a pure
    function of the task — so the daemon serves any number of
    campaigns, one after another or interleaved.  One thing outlives
    a task: the process's last decoded RIB block
    (:func:`~repro.core.payload.decode_snapshot`).  It is keyed by the
    block's bytes, which every task carries, and nothing writes it, so
    a hit gives a task the objects a fresh decode would equal and a
    miss costs one decode.
    """

    def __init__(self):
        self._lock = threading.Lock()

    def handle(self, message: tuple) -> tuple:
        """Process one decoded message; returns the response.

        Task failures come back as ``("error", ...)`` frames rather
        than killing the daemon; control-flow exceptions
        (``KeyboardInterrupt``/``SystemExit``) propagate — stopping the
        daemon is the operator's business, not a task outcome.
        """
        kind = message[0]
        with self._lock:
            if kind == "task":
                _, request_id, task = message
                try:
                    outcome = run_task(task)
                except Exception as error:
                    return ("error", request_id,
                            f"{type(error).__name__}: {error}",
                            traceback.format_exc())
                return ("outcome", request_id, outcome)
        raise ValueError(f"unknown message kind {kind!r}")


class WorkerServer:
    """The ``repro remote-worker`` daemon: a TCP server around one
    :class:`RemoteWorkerState`.

    Accepts any number of orchestrator connections, from any number
    of campaigns, over its lifetime.  Each connection gets a handler
    thread; the state lock serializes task execution.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._listener = socket.create_server((host, port))
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self.state = RemoteWorkerState()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._accept_thread: threading.Thread | None = None

    def start(self) -> "WorkerServer":
        """Serve on a background thread (tests, embedded workers)."""
        self._accept_thread = threading.Thread(
            target=self.serve_forever,
            name=f"remote-worker-{self.address[1]}", daemon=True,
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept and serve connections until :meth:`close`."""
        self._listener.settimeout(0.2)
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name=f"remote-worker-conn-{self.address[1]}", daemon=True,
            )
            thread.start()
            # Prune finished handlers so a daemon serving many
            # campaigns over its lifetime does not accumulate them.
            self._threads = [
                alive for alive in self._threads if alive.is_alive()
            ]
            self._threads.append(thread)

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while not self._stop.is_set():
                received = recv_message(conn)
                if received is None:
                    return
                conn.sendall(encode_frame(self.state.handle(received[0])))
        except (ConnectionError, OSError, EOFError, ValueError,
                pickle.UnpicklingError):
            # The orchestrator went away, or sent a frame that does not
            # decode to a known message; either way this connection is
            # over and the daemon lives on.
            return
        finally:
            conn.close()

    def close(self) -> None:
        """Stop accepting, close the listener, join handler threads."""
        self._stop.set()
        self._listener.close()
        for thread in self._threads:
            thread.join(timeout=2.0)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)

    def __enter__(self) -> "WorkerServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve_worker(host: str = "127.0.0.1", port: int = 0) -> int:
    """Run a worker daemon in the foreground (the CLI entry point).

    Prints the bound address before serving — with ``port=0`` the OS
    picks an ephemeral port, and scripts parse it from this line.
    """
    server = WorkerServer(host, port)
    print(
        f"repro remote-worker listening on "
        f"{server.address[0]}:{server.address[1]}",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


# -- orchestrator side --------------------------------------------------------


class LoopbackTransport:
    """The remote protocol without the network.

    Each slot is a private :class:`RemoteWorkerState`, and every
    message — task out, outcome back — round-trips through
    :func:`encode_frame`/:func:`decode_frame`, so the full
    serialization path (and its byte counts) is exercised in-process.
    Execution is synchronous: :meth:`submit` returns an
    already-resolved future.  This is the transport tests and CI use
    to gate remote-dispatch determinism without socket plumbing.
    """

    def __init__(self, slots: int = 2):
        self.slots = max(1, slots)
        self._states = [RemoteWorkerState() for _ in range(self.slots)]
        self._request_ids = itertools.count(1)
        self.bytes_sent = 0
        self.bytes_received = 0
        self._closed = False

    def slot_label(self, slot: int) -> str:
        return f"loopback slot {slot}"

    def _exchange(self, slot: int, message: tuple) -> tuple:
        frame = encode_frame(message)
        self.bytes_sent += len(frame)
        response = self._states[slot].handle(decode_frame(frame))
        frame = encode_frame(response)
        self.bytes_received += len(frame)
        return decode_frame(frame)

    def submit(self, slot: int, task: ExplorationTask) -> "Future[TaskOutcome]":
        if self._closed:
            raise RuntimeError("loopback transport is closed")
        future: Future[TaskOutcome] = Future()
        response = self._exchange(
            slot, ("task", next(self._request_ids), task)
        )
        if response[0] == "error":
            future.set_exception(
                RemoteWorkerError(
                    f"task failed on loopback slot {slot}: "
                    f"{response[2]}\n{response[3]}"
                )
            )
        else:
            future.set_result(response[2])
        return future

    def close(self) -> None:
        self._closed = True


class _Connection:
    """One persistent, pipelined connection to a worker daemon.

    Requests go out under a send lock; a reader thread matches
    responses to pending futures in FIFO order (the daemon answers
    each connection's frames in order, so ids are a cross-check, not a
    routing mechanism).
    """

    def __init__(self, address: tuple[str, int]):
        self.address = address
        self._sock = self._dial(address)
        self._sock.settimeout(None)
        self._send_lock = threading.Lock()
        self._pending: deque[tuple[int, Future]] = deque()
        self._pending_lock = threading.Lock()
        self._request_ids = itertools.count(1)
        self.bytes_sent = 0
        self.bytes_received = 0
        self._closed = False
        # Set (under the send lock) when the *peer* failed — as opposed
        # to our own close(); every later interaction fails fast with
        # the original cause so the engine's failover classifies it.
        self.dead: BaseException | None = None
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"remote-reader-{address[0]}:{address[1]}", daemon=True,
        )
        self._reader.start()

    @staticmethod
    def _dial(address: tuple[str, int]) -> socket.socket:
        """Connect with bounded retry + exponential backoff
        (:data:`CONNECT_ATTEMPTS` tries).

        Campaign *start* is the one moment retrying is safe and useful
        (a daemon still booting, a load balancer warming up); once a
        campaign is running, a lost daemon's task is dispatched again
        on a surviving slot instead.
        """
        delay = CONNECT_BACKOFF_S
        for attempt in range(CONNECT_ATTEMPTS):
            try:
                return socket.create_connection(
                    address, timeout=CONNECT_TIMEOUT_S
                )
            except OSError as error:
                if attempt + 1 >= CONNECT_ATTEMPTS:
                    raise RemoteWorkerError(
                        f"cannot reach remote worker at "
                        f"{address[0]}:{address[1]} "
                        f"after {attempt + 1} attempt(s): {error}"
                    ) from error
                time.sleep(delay)
                delay *= 2
        raise AssertionError("unreachable")

    def _died(self, cause: BaseException | str) -> WorkerDiedError:
        """The canonical slot-death error for this connection."""
        if isinstance(cause, WorkerDiedError):
            return cause
        return WorkerDiedError(
            f"remote worker {self.address[0]}:{self.address[1]} died: "
            f"{cause}",
            address=self.address,
        )

    def send(self, message: tuple) -> None:
        frame = encode_frame(message)
        with self._send_lock:
            if self.dead is not None:
                raise self._died(self.dead)
            if self._closed:
                raise RemoteWorkerError(
                    f"connection to {self.address[0]}:{self.address[1]} "
                    "is closed"
                )
            try:
                self._sock.sendall(frame)
            except OSError as error:
                self.dead = error
                raise self._died(error) from error
            self.bytes_sent += len(frame)

    def submit(self, task: ExplorationTask) -> "Future[TaskOutcome]":
        future: Future[TaskOutcome] = Future()
        request_id = next(self._request_ids)
        with self._pending_lock:
            self._pending.append((request_id, future))
        try:
            self.send(("task", request_id, task))
        except (RemoteWorkerError, OSError) as error:
            with self._pending_lock:
                if self._pending and self._pending[-1][1] is future:
                    self._pending.pop()
            if not future.done():
                future.set_exception(
                    error if isinstance(error, RemoteWorkerError)
                    else self._died(error)
                )
        return future

    def _read_loop(self) -> None:
        error: BaseException | None = None
        try:
            while True:
                received = recv_message(self._sock)
                if received is None:
                    break
                message, wire_bytes = received
                self.bytes_received += wire_bytes
                kind = message[0]
                if kind not in ("outcome", "error"):
                    continue  # a later protocol extension
                with self._pending_lock:
                    if not self._pending:
                        raise RemoteWorkerError(
                            f"unsolicited {kind} frame from "
                            f"{self.address[0]}:{self.address[1]}"
                        )
                    request_id, future = self._pending.popleft()
                if message[1] != request_id:
                    raise RemoteWorkerError(
                        f"response id {message[1]} does not match "
                        f"pending request {request_id}"
                    )
                if kind == "outcome":
                    future.set_result(message[2])
                else:
                    future.set_exception(
                        RemoteWorkerError(
                            f"task failed on "
                            f"{self.address[0]}:{self.address[1]}: "
                            f"{message[2]}\n{message[3]}"
                        )
                    )
        except BaseException as failure:  # noqa: BLE001 - fanned out below
            # A recv error caused by our own close() is a clean
            # shutdown, not a worker failure.
            error = None if self._closed else failure
        if error is None and not self._closed:
            # Clean EOF we did not ask for: the worker died, tasks in
            # flight or not.  An idle connection must be marked dead
            # too — the kernel would accept the next task frame, nobody
            # would answer it, and its future would never resolve.
            error = ConnectionError("worker closed the connection")
        if error is not None:
            with self._send_lock:
                if self.dead is None:
                    self.dead = error
        self._drain_pending(error)

    def _drain_pending(self, error: BaseException | None) -> None:
        """Resolve every still-pending future after the stream ended.

        With an ``error``, waiters get a :class:`WorkerDiedError`
        naming the peer and cause — the failover-classifiable signal —
        (the futures are pending, so ``set_exception`` must come before
        any cancel — a cancelled future would swallow the context); on
        a clean shutdown they are simply cancelled.
        """
        with self._pending_lock:
            pending = list(self._pending)
            self._pending.clear()
        for _, future in pending:
            if error is not None:
                if not future.done():
                    future.set_exception(self._died(error))
            else:
                future.cancel()

    def discard(self, cause: BaseException | str) -> None:
        """Declare the peer dead: fail fast forever, drop the socket.

        The failover path's counterpart to :meth:`close` — pending
        futures resolve with the death error (never a bare cancel, so
        requeue logic sees a classifiable cause) and later submits
        fail fast without touching the network.
        """
        with self._send_lock:
            if self.dead is None:
                self.dead = (
                    cause if isinstance(cause, BaseException)
                    else ConnectionError(str(cause))
                )
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
        self._reader.join(timeout=5.0)
        self._drain_pending(self.dead)

    def close(self) -> None:
        with self._send_lock:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
        self._reader.join(timeout=5.0)
        self._drain_pending(self.dead)


class SocketTransport:
    """Length-prefixed pickle frames over TCP to worker daemons.

    One worker slot per address, one persistent connection per slot,
    opened eagerly — with bounded retry + exponential backoff, so a
    daemon still booting gets a grace period but a truly absent one
    fails the campaign at start rather than mid-cycle.  Byte counters
    aggregate across connections.

    Failover surface: a slot whose connection died resolves its
    futures with :class:`WorkerDiedError` (classifiable, names the
    peer) and :meth:`discard_slot` drops its connection.
    :meth:`close` drops the connections and cancels undelivered
    futures; the daemons live on for the next campaign.
    """

    def __init__(self, addresses):
        parsed = [parse_address(address) for address in addresses]
        if not parsed:
            raise ValueError(
                "socket transport needs at least one worker address"
            )
        self.slots = len(parsed)
        self._connections: list[_Connection] = []
        try:
            for address in parsed:
                self._connections.append(_Connection(address))
        except RemoteWorkerError:
            self.close()
            raise

    @property
    def bytes_sent(self) -> int:
        return sum(conn.bytes_sent for conn in self._connections)

    @property
    def bytes_received(self) -> int:
        return sum(conn.bytes_received for conn in self._connections)

    def slot_label(self, slot: int) -> str:
        host, port = self._connections[slot].address
        return f"{host}:{port}"

    def discard_slot(self, slot: int) -> None:
        """Drop a dead slot's connection."""
        self._connections[slot].discard(
            ConnectionError("worker slot retired after failure")
        )

    def submit(self, slot: int, task: ExplorationTask) -> "Future[TaskOutcome]":
        return self._connections[slot].submit(task)

    def close(self) -> None:
        for conn in self._connections:
            conn.close()
