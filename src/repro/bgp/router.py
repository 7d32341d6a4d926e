"""The BGP speaker: a :class:`~repro.net.node.Process` running BGP-4.

This is the reproduction's BIRD.  One router holds:

* a :class:`RouterConfig` (which can change at runtime — operator
  mistakes are configuration changes);
* one :class:`Session` per configured neighbor, driven by the FSM;
* per-peer Adj-RIB-In / Adj-RIB-Out and a Loc-RIB;
* the decision process, import/export policy evaluation, and the
  update-handling pipeline DiCE instruments.

Wire realism: routers exchange *encoded bytes*, not message objects, so
byte-level fuzzing and concolic exploration inject through exactly the
same entry point (:meth:`handle_raw`) as normal traffic.

Crash semantics: an unexpected exception in the update pipeline (e.g. an
injected programming-error bug) is caught at the top of the handler the
way a supervised daemon restart would be — the event is logged as
``router_crash``, all sessions reset, and RIBs clear.  DiCE's crash
checker distinguishes this from protocol-error NOTIFICATIONs.

Events worth an operator's attention go to this module's logger at
``DEBUG`` as ``<event> <router> t=<simulated time> ...``; nothing reads
them back (the checks read the Loc-RIB journal and session counters).
"""

from __future__ import annotations

import logging
from typing import Any

from repro.bgp import faults
from repro.bgp.damping import (
    FLAP_ATTRIBUTE_CHANGE,
    FLAP_READVERTISE,
    FLAP_WITHDRAW,
    FlapDampener,
)
from repro.bgp.attributes import (
    COMMUNITY_NO_ADVERTISE,
    COMMUNITY_NO_EXPORT,
    PathAttributes,
)
from repro.bgp.config import ConfigChange, NeighborConfig, RouterConfig
from repro.bgp.decision import best_route
from repro.bgp.errors import BGPError, OpenMessageError
from repro.bgp.fsm import Session, SessionState
from repro.bgp.ip import Prefix
from repro.bgp.messages import (
    BGPMessage,
    KeepaliveMessage,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
    decode_message,
)
from repro.bgp.rib import AdjRibIn, AdjRibOut, LocRib, RibChange
from repro.bgp.route import SOURCE_EBGP, SOURCE_IBGP, SOURCE_STATIC, Route
from repro.net.node import Process

_log = logging.getLogger(__name__)

# Timer names.
_T_CONNECT = "connect"
_T_KEEPALIVE = "keepalive"
_T_HOLD = "hold"


class BGPRouter(Process):
    """A BGP-4 speaker attached to the simulated network."""

    def __init__(self, config: RouterConfig, connect_delay: float = 0.1):
        super().__init__(config.name)
        self.config = config
        # ``config.neighbors`` by peer, for ``_neighbor``; built from the
        # config object ``_neighbors_of`` and rebuilt once ``config`` is
        # another one (callers assign it directly).
        self._neighbors: dict[str, NeighborConfig] = {}
        self._neighbors_of: RouterConfig | None = None
        self.connect_delay = connect_delay
        self.sessions: dict[str, Session] = {}
        self.adj_rib_in: dict[str, AdjRibIn] = {}
        self.adj_rib_out: dict[str, AdjRibOut] = {}
        self.loc_rib = LocRib()
        self.crash_count = 0
        self.last_crash: str | None = None
        self.update_handler_calls = 0
        # MRAI batching: per-peer pending change map (prefix -> latest
        # change), flushed when the per-peer MRAI timer expires.
        self._pending_export: dict[str, dict[Prefix, RibChange]] = {}
        # Route-flap damping (RFC 2439), active when configured.
        self.dampener = (
            FlapDampener(params=config.damping)
            if config.damping is not None
            else None
        )
        for neighbor in config.neighbors:
            self.sessions[neighbor.peer] = Session(
                peer=neighbor.peer,
                peer_as=neighbor.peer_as,
                hold_time=neighbor.hold_time,
                negotiated_hold_time=neighbor.hold_time,
            )
            self.adj_rib_in[neighbor.peer] = AdjRibIn(neighbor.peer)
            self.adj_rib_out[neighbor.peer] = AdjRibOut(neighbor.peer)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Originate configured networks and begin session establishment."""
        self._originate_networks()
        for peer in sorted(self.sessions):
            self._start_connect(peer)

    def _originate_networks(self) -> None:
        changes = self._run_decision(list(self.config.networks))
        self._propagate(changes)

    def _static_route(self, prefix: Prefix) -> Route:
        attrs = self._canonical(
            PathAttributes(next_hop=self.config.router_id)
        )
        return Route(
            prefix=prefix,
            attributes=attrs,
            source=SOURCE_STATIC,
            received_at=self.now if self.network else 0.0,
        )

    def _start_connect(self, peer: str) -> None:
        session = self.sessions[peer]
        session.transition(SessionState.CONNECT)
        self.set_timer(f"{_T_CONNECT}:{peer}", self.connect_delay)

    # -- message plumbing ------------------------------------------------------

    def send_message(self, peer: str, message: BGPMessage) -> None:
        """Encode and transmit one message to a neighbor."""
        stats = self.sessions[peer].stats
        if isinstance(message, UpdateMessage):
            stats.updates_sent += 1
        elif isinstance(message, KeepaliveMessage):
            stats.keepalives_sent += 1
        elif isinstance(message, OpenMessage):
            stats.opens_sent += 1
        elif isinstance(message, NotificationMessage):
            stats.notifications_sent += 1
        self.send(peer, self._encode(message))

    def on_message(self, src: str, payload: Any) -> None:
        """Entry point for deliveries from the network (wire bytes)."""
        self.handle_raw(src, payload)

    def handle_raw(self, src: str, data: Any) -> None:
        """Decode and dispatch one wire message from ``src``.

        This is the instrumented entry point: DiCE's explorer calls it
        directly with symbolic buffers.  Protocol errors produce
        NOTIFICATION + session reset; unexpected exceptions are treated
        as a router crash (see module docstring).
        """
        if src not in self.sessions:
            return  # not a configured neighbor; a real router drops the TCP
        try:
            try:
                message = self._decode(data)
            except BGPError as error:
                self._protocol_error(src, error)
                return
            self._dispatch(src, message)
        except BGPError as error:
            self._protocol_error(src, error)
        except (KeyboardInterrupt, SystemExit, MemoryError):
            raise
        except Exception as crash:  # noqa: BLE001 - daemon-crash semantics
            # Injected bugs and genuine defects alike: a supervised
            # daemon dies and restarts; DiCE's crash checker observes
            # the incremented counter.
            self._crash(f"{type(crash).__name__}: {crash}")

    def _decode(self, data: Any) -> BGPMessage:
        """``decode_message(data)``, run once per distinct ``bytes`` this
        network delivers.

        ``decode_message`` is a pure function of its whole input, so
        every receiver of the same bytes is handed the same (read-only)
        message — and with it the same attribute set and prefixes, which
        is where routers come to share what they learn.  Only an exact
        ``bytes`` is looked up: a symbolic buffer always takes the
        decoder, so the concolic engine records every constraint.  Only
        a successful decode is kept: an input that errors, or crashes
        the decoder, does so on every delivery.
        """
        network = self.network
        if network is None or type(data) is not bytes:
            return decode_message(data)
        message = network.interned.get(data)
        if message is None:
            message = network.intern(data, decode_message(data))
        return message

    def _encode(self, message: BGPMessage) -> bytes:
        """``message.encode()``, run once per distinct concrete UPDATE
        this network sends.

        A change exported alike to several peers is one UPDATE, so each
        of them is sent the same ``bytes`` object, which every receiver's
        delivery memo (:meth:`_decode`) then hashes once.  The key is
        tagged, so it can equal no other kind of entry in the table.  An
        UPDATE whose attribute set holds a symbolic value is encoded
        every time and never kept, as :meth:`_canonical` never keeps
        the set.
        """
        network = self.network
        if network is None or type(message) is not UpdateMessage:
            return message.encode()
        attributes = message.attributes
        if attributes is None:
            key = ("UPDATE", message.withdrawn, None, message.nlri)
        elif attributes.is_concrete():
            key = ("UPDATE", message.withdrawn, attributes.key(), message.nlri)
        else:
            return message.encode()
        data = network.interned.get(key)
        if data is None:
            data = network.intern(key, message.encode())
        return data

    def _canonical(self, attrs: PathAttributes) -> PathAttributes:
        """This network's one object for ``attrs``' value, as BIRD's
        ``rta_lookup`` and FRR's ``attrhash`` keep one per daemon.

        A set holding a symbolic value is returned as it is and never
        kept: its key is concretized, so it would alias a concrete set
        and drop the expressions the concolic engine follows.
        """
        network = self.network
        if network is None or not attrs.is_concrete():
            return attrs
        key = attrs.key()
        found = network.interned.get(key)
        return found if found is not None else network.intern(key, attrs)

    def _dispatch(self, src: str, message: BGPMessage) -> None:
        session = self.sessions[src]
        if isinstance(message, OpenMessage):
            session.stats.opens_received += 1
            self._handle_open(src, message)
        elif isinstance(message, KeepaliveMessage):
            session.stats.keepalives_received += 1
            self._handle_keepalive(src)
        elif isinstance(message, UpdateMessage):
            session.stats.updates_received += 1
            self._handle_update(src, message)
        elif isinstance(message, NotificationMessage):
            session.stats.notifications_received += 1
            _log.debug("notification_received %s t=%.3f peer=%s code=%s/%s",
                       self.name, self.now, src, message.code, message.subcode)
            self._reset_session(src)

    def _protocol_error(self, src: str, error: BGPError) -> None:
        _log.debug("protocol_error %s t=%.3f peer=%s code=%s/%s: %s",
                   self.name, self.now, src, error.code, error.subcode, error)
        if self.sessions[src].state != SessionState.IDLE:
            self.send_message(src, NotificationMessage.from_error(error))
        self._reset_session(src)

    def _crash(self, detail: str) -> None:
        self.crash_count += 1
        self.last_crash = detail
        _log.debug("router_crash %s t=%.3f: %s", self.name, self.now, detail)
        # Daemon restart: all sessions drop, all learned state is lost.
        for peer in list(self.sessions):
            self._reset_session(peer, restart=True)
        for prefix in list(self.loc_rib.prefixes()):
            route = self.loc_rib.get(prefix)
            if route is not None and route.source != SOURCE_STATIC:
                self.loc_rib.set(self.now, prefix, None)

    # -- session FSM -------------------------------------------------------------

    def on_timer(self, name: str) -> None:
        kind, _, peer = name.partition(":")
        if kind == _T_CONNECT:
            self._send_open(peer)
        elif kind == _T_KEEPALIVE:
            self._keepalive_tick(peer)
        elif kind == _T_HOLD:
            self._hold_expired(peer)
        elif kind == "restart":
            # Only reconnect if the session is still down; the peer may
            # have re-initiated the handshake before our backoff expired.
            if self.sessions[peer].state == SessionState.IDLE:
                self._start_connect(peer)
        elif kind == "mrai":
            self._mrai_expired(peer)
        elif kind == "reuse":
            reuse_peer, _, prefix_text = peer.partition("|")
            changes = self._run_decision([Prefix(prefix_text)])
            self._propagate(changes)
            _log.debug("route_reused %s t=%.3f peer=%s prefix=%s",
                       self.name, self.now, reuse_peer, prefix_text)

    def _send_open(self, peer: str) -> None:
        session = self.sessions[peer]
        session.transition(SessionState.OPEN_SENT)
        self.send_message(
            peer,
            OpenMessage(
                my_as=self.config.local_as,
                hold_time=session.hold_time,
                bgp_id=self.config.router_id,
            ),
        )

    def _handle_open(self, src: str, message: OpenMessage) -> None:
        session: Session = self.sessions[src]
        self.cancel_timer(f"{_T_CONNECT}:{src}")
        if message.my_as != session.peer_as:
            raise OpenMessageError(
                OpenMessageError.BAD_PEER_AS,
                f"expected AS {session.peer_as}, got {message.my_as}",
            )
        if session.state in (SessionState.ESTABLISHED, SessionState.OPEN_CONFIRM):
            # A fresh OPEN on a live session means the peer restarted:
            # drop the stale session (and its routes), then continue the
            # new handshake immediately.
            self._reset_session(src, restart=False)
        session.peer_bgp_id = message.bgp_id
        session.negotiated_hold_time = min(session.hold_time, message.hold_time) \
            if message.hold_time else 0
        if session.state in (SessionState.IDLE, SessionState.CONNECT):
            # We have not sent our own OPEN on this incarnation yet.
            self._send_open(src)
        session.transition(SessionState.OPEN_CONFIRM)
        self.send_message(src, KeepaliveMessage())
        self._arm_hold(src)

    def _handle_keepalive(self, src: str) -> None:
        session = self.sessions[src]
        if session.state == SessionState.OPEN_CONFIRM:
            session.transition(SessionState.ESTABLISHED)
            session.established_at = self.now
            _log.debug("session_established %s t=%.3f peer=%s",
                       self.name, self.now, src)
            self._arm_keepalive(src)
            self._advertise_full_table(src)
        self._arm_hold(src)

    def _arm_keepalive(self, peer: str) -> None:
        interval = self.sessions[peer].keepalive_interval()
        if interval > 0:
            self.set_timer(f"{_T_KEEPALIVE}:{peer}", interval)

    def _arm_hold(self, peer: str) -> None:
        hold = self.sessions[peer].negotiated_hold_time
        if hold > 0:
            self.set_timer(f"{_T_HOLD}:{peer}", float(hold))

    def _keepalive_tick(self, peer: str) -> None:
        session = self.sessions[peer]
        if session.is_established():
            self.send_message(peer, KeepaliveMessage())
            self._arm_keepalive(peer)

    def _hold_expired(self, peer: str) -> None:
        _log.debug("hold_timer_expired %s t=%.3f peer=%s",
                   self.name, self.now, peer)
        session = self.sessions[peer]
        if session.state != SessionState.IDLE:
            self.send_message(peer, NotificationMessage(code=4))
        self._reset_session(peer)

    def _reset_session(self, peer: str, restart: bool = True) -> None:
        session = self.sessions[peer]
        was_established = session.is_established()
        session.reset()
        self.cancel_timer(f"{_T_KEEPALIVE}:{peer}")
        self.cancel_timer(f"{_T_HOLD}:{peer}")
        self.cancel_timer(f"mrai:{peer}")
        self._pending_export.pop(peer, None)
        self.adj_rib_out[peer].clear()
        affected = self.adj_rib_in[peer].clear()
        if was_established:
            _log.debug("session_reset %s t=%.3f peer=%s",
                       self.name, self.now, peer)
        if affected:
            changes = self._run_decision(affected)
            self._propagate(changes)
        if restart and self.network is not None:
            # Re-establish after a backoff, as a real daemon would.
            self.set_timer(f"restart:{peer}", 3.0)

    # -- UPDATE pipeline ------------------------------------------------------------

    def _handle_update(self, src: str, message: UpdateMessage) -> None:
        session = self.sessions[src]
        if not session.is_established():
            return  # UPDATEs outside Established are dropped (reduced FSM)
        self.update_handler_calls += 1
        self._arm_hold(src)
        dirty: list[Prefix] = []
        faults.check_withdraw_overflow(
            len(message.withdrawn),
            self.config.bug_enabled(faults.BUG_WITHDRAW_OVERFLOW),
        )
        for prefix in message.withdrawn:
            if self.adj_rib_in[src].withdraw(prefix) is not None:
                dirty.append(prefix)
                self._record_flap(src, prefix, FLAP_WITHDRAW)
        if message.nlri:
            assert message.attributes is not None  # decoder guarantees
            for prefix in message.nlri:
                route = self._build_route(src, prefix, message.attributes)
                accepted = self._import_route(src, route)
                if accepted:
                    dirty.append(prefix)
        if dirty:
            changes = self._run_decision(dirty)
            self._propagate(changes)

    def _neighbor(self, peer: str) -> NeighborConfig:
        """``self.config.neighbor(peer)``, by one dict lookup."""
        config = self.config
        if config is not self._neighbors_of:
            self._neighbors = {n.peer: n for n in config.neighbors}
            self._neighbors_of = config
        return self._neighbors[peer]

    def _build_route(self, src: str, prefix: Prefix,
                     attributes: PathAttributes) -> Route:
        session = self.sessions[src]
        neighbor = self._neighbor(src)
        source = SOURCE_IBGP if neighbor.is_ibgp(self.config.local_as) else SOURCE_EBGP
        return Route(
            prefix=prefix,
            attributes=attributes,
            source=source,
            peer=src,
            peer_as=neighbor.peer_as,
            peer_bgp_id=session.peer_bgp_id,
            received_at=self.now,
        )

    def _import_route(self, src: str, route: Route) -> bool:
        """Ingress checks + import policy; installs into Adj-RIB-In.

        Returns True when the prefix needs a decision-process run (both
        on accept and on an implicit withdraw of a previously accepted
        route that is now rejected).
        """
        faults.check_community_crash(
            route.attributes.communities,
            self.config.bug_enabled(faults.BUG_COMMUNITY_CRASH),
        )
        verdict = False
        filtered = route
        if self._ingress_ok(src, route):
            result = self._eval_filter(src, route, direction="import")
            if result.fell_through:
                _log.debug("filter_fell_through %s t=%.3f peer=%s import "
                           "prefix=%s", self.name, self.now, src, route.prefix)
            if result.accepted:
                verdict = True
                filtered = route.with_attributes(
                    self._canonical(result.attributes)
                )
        if not verdict:
            # Treat-as-withdraw for routes that fail checks or policy;
            # losing a previously-held route this way is a flap too
            # (RFC 2439 counts implicit withdrawals).
            removed = self.adj_rib_in[src].withdraw(route.prefix) is not None
            if removed:
                self._record_flap(src, route.prefix, FLAP_WITHDRAW)
            return removed
        previous = self.adj_rib_in[src].update(filtered)
        if previous is None:
            self._record_flap(src, route.prefix, FLAP_READVERTISE)
        elif previous.attributes != filtered.attributes:
            self._record_flap(src, route.prefix, FLAP_ATTRIBUTE_CHANGE)
        return True

    def _record_flap(self, peer: str, prefix: Prefix, kind: str) -> None:
        if self.dampener is None:
            return
        suppressed = self.dampener.record_flap(peer, prefix, kind, self.now)
        if suppressed:
            _log.debug("route_suppressed %s t=%.3f peer=%s prefix=%s",
                       self.name, self.now, peer, prefix)
            eta = self.dampener.reuse_eta(peer, prefix, self.now)
            if eta is not None and self.network is not None:
                self.set_timer(f"reuse:{peer}|{prefix}", eta + 0.01)

    def _ingress_ok(self, src: str, route: Route) -> bool:
        path = route.attributes.as_path
        if path.contains(self.config.local_as):
            _log.debug("loop_rejected %s t=%.3f peer=%s prefix=%s",
                       self.name, self.now, src, route.prefix)
            return False
        if route.source == SOURCE_EBGP:
            neighbor = self._neighbor(src)
            first = path.first_as()
            if first is not None and first != neighbor.peer_as:
                _log.debug("first_as_mismatch %s t=%.3f peer=%s prefix=%s",
                           self.name, self.now, src, route.prefix)
                return False
        return True

    def _eval_filter(self, src: str, route: Route, direction: str):
        neighbor = self._neighbor(src)
        name = (
            neighbor.import_filter if direction == "import"
            else neighbor.export_filter
        )
        policy = self.config.get_filter(name)
        return policy.evaluate(
            route, default_local_pref=self.config.default_local_pref
        )

    # -- decision process ---------------------------------------------------------

    def _candidates(self, prefix: Prefix) -> list[Route]:
        routes = []
        if prefix in self.config.networks:
            routes.append(self._static_route(prefix))
        for peer in sorted(self.adj_rib_in):
            route = self.adj_rib_in[peer].get(prefix)
            if route is None:
                continue
            if self.dampener is not None and self.dampener.is_suppressed(
                peer, prefix, self.now
            ):
                continue
            routes.append(route)
        return routes

    def _run_decision(self, prefixes: list[Prefix]) -> list[RibChange]:
        changes: list[RibChange] = []
        for prefix in dict.fromkeys(prefixes):  # dedupe, keep order
            candidates = self._candidates(prefix)
            best = self._select(candidates)
            change = self.loc_rib.set(self.now, prefix, best)
            if change is not None:
                changes.append(change)
        return changes

    def _select(self, candidates: list[Route]) -> Route | None:
        """The route selection process, with injected-bug hooks applied."""
        if not candidates:
            return None
        adjusted = [self._apply_semantic_bugs(route) for route in candidates]
        best = best_route(
            adjusted,
            default_local_pref=self.config.default_local_pref,
            always_compare_med=self.config.always_compare_med,
        )
        assert best is not None
        # Map back to the unadjusted route object for installation.
        index = next(i for i, route in enumerate(adjusted) if route is best)
        return candidates[index]

    def _apply_semantic_bugs(self, route: Route) -> Route:
        """Overlay the off-by-one / MED-overflow bugs as symbolic shadows."""
        off_by_one = self.config.bug_enabled(faults.BUG_ASPATH_OFF_BY_ONE)
        med_overflow = self.config.bug_enabled(faults.BUG_MED_SIGNED_OVERFLOW)
        if not (off_by_one or med_overflow):
            return route
        shadows = dict(route.sym)
        if off_by_one:
            true_len = shadows.get("path_len", route.attributes.as_path.length())
            shadows["path_len"] = faults.buggy_path_length(true_len, True)
        if med_overflow:
            med = shadows.get(
                "med",
                route.attributes.med if route.attributes.med is not None else 0,
            )
            shadows["med"] = faults.buggy_med(med, True)
        if shadows == route.sym:
            return route
        return route.replace(sym=shadows)

    # -- export -------------------------------------------------------------------

    def _propagate(self, changes: list[RibChange]) -> None:
        if not changes:
            return
        for peer in sorted(self.sessions):
            if not self.sessions[peer].is_established():
                continue
            if self.config.mrai > 0:
                self._enqueue_with_mrai(peer, changes)
            else:
                self._export_changes(peer, changes)

    def _enqueue_with_mrai(self, peer: str, changes: list[RibChange]) -> None:
        """Rate-limited export: the first batch goes out immediately and
        arms the per-peer MRAI timer; later changes coalesce (only the
        latest change per prefix survives) until the timer fires."""
        if not self.timer_armed(f"mrai:{peer}"):
            self._export_changes(peer, changes)
            self.set_timer(f"mrai:{peer}", self.config.mrai)
            return
        pending = self._pending_export.setdefault(peer, {})
        for change in changes:
            pending[change.prefix] = change

    def _advertise_full_table(self, peer: str) -> None:
        """Initial full-table advertisement on session establishment."""
        changes = [
            RibChange(self.now, route.prefix, None, route)
            for route in self.loc_rib.routes()
        ]
        self._export_changes(peer, changes)

    def _export_changes(self, peer: str, changes: list[RibChange]) -> None:
        announce: list[Route] = []
        withdraw: list[Prefix] = []
        for change in changes:
            if change.new is None:
                if self.adj_rib_out[peer].record_withdraw(change.prefix):
                    withdraw.append(change.prefix)
                continue
            exported = self._export_route(peer, change.new)
            if exported is None:
                # Policy now filters it: withdraw if previously advertised.
                if self.adj_rib_out[peer].record_withdraw(change.prefix):
                    withdraw.append(change.prefix)
                continue
            if self.adj_rib_out[peer].record_announce(exported):
                announce.append(exported)
        self._send_updates(peer, announce, withdraw)

    def _send_updates(self, peer: str, announce: list[Route],
                      withdraw: list[Prefix]) -> None:
        if withdraw:
            self.send_message(peer, UpdateMessage(withdrawn=tuple(withdraw)))
        # One UPDATE per distinct attribute set (RFC allows NLRI packing).
        by_attrs: dict[tuple, tuple[PathAttributes, list[Prefix]]] = {}
        for route in announce:
            key = route.attributes.key()
            if key not in by_attrs:
                by_attrs[key] = (route.attributes, [])
            by_attrs[key][1].append(route.prefix)
        for attributes, prefixes in by_attrs.values():
            self.send_message(
                peer,
                UpdateMessage(attributes=attributes, nlri=tuple(prefixes)),
            )

    def _export_route(self, peer: str, route: Route) -> Route | None:
        """Egress processing toward one neighbor; None = do not advertise."""
        neighbor = self._neighbor(peer)
        is_ibgp_peer = neighbor.is_ibgp(self.config.local_as)
        # Do not send a route back to the peer it came from.
        if route.peer == peer:
            return None
        # iBGP-learned routes are not reflected to other iBGP peers
        # (no route-reflector support; full mesh assumed inside an AS).
        if route.source == SOURCE_IBGP and is_ibgp_peer:
            return None
        attrs = route.attributes
        # Well-known community semantics.
        if attrs.has_community(COMMUNITY_NO_ADVERTISE):
            return None
        if not is_ibgp_peer and attrs.has_community(COMMUNITY_NO_EXPORT):
            return None
        # AS-path based split horizon: never offer a path that already
        # contains the neighbor's AS (it would be loop-rejected anyway).
        if not is_ibgp_peer and attrs.as_path.contains(neighbor.peer_as):
            return None
        # Symbolic shadows stay local: they never reach the wire.
        exported = route.replace(sym={}) if route.sym else route
        result = self._eval_filter(peer, exported, direction="export")
        if result is not None:
            if result.fell_through:
                _log.debug("filter_fell_through %s t=%.3f peer=%s export "
                           "prefix=%s", self.name, self.now, peer, route.prefix)
            if not result.accepted:
                return None
            attrs = result.attributes
        if not is_ibgp_peer:
            attrs = attrs.replace(
                as_path=attrs.as_path.prepend(self.config.local_as),
                next_hop=self.config.router_id,
                local_pref=None,
                med=neighbor.export_med,
            )
        elif attrs.local_pref is None:
            attrs = attrs.replace(local_pref=self.config.default_local_pref)
        return exported.with_attributes(self._canonical(attrs))

    def _mrai_expired(self, peer: str) -> None:
        """Flush coalesced changes; re-arm while traffic continues."""
        pending = self._pending_export.pop(peer, None)
        if not pending:
            return
        if self.sessions[peer].is_established():
            # Re-resolve each prefix against the *current* Loc-RIB: the
            # coalesced change may be stale by flush time.
            fresh = [
                RibChange(self.now, prefix, change.old,
                          self.loc_rib.get(prefix))
                for prefix, change in sorted(pending.items())
            ]
            self._export_changes(peer, fresh)
            self.set_timer(f"mrai:{peer}", self.config.mrai)

    # -- configuration changes -------------------------------------------------------

    def apply_config_change(self, change: ConfigChange) -> None:
        """Apply a runtime configuration change and reconverge."""
        old_networks = set(self.config.networks)
        self.config = change.apply(self.config)
        _log.debug("config_change %s t=%.3f: %s",
                   self.name, self.now, change.describe())
        new_networks = set(self.config.networks)
        # Sorted: set iteration order is salted-hash order, and dirty
        # feeds the decision/propagation sequence — message ordering
        # must not vary across processes (DET001).
        dirty = sorted(old_networks.symmetric_difference(new_networks))
        # Filter changes can affect every prefix; re-run decision broadly.
        if not dirty:
            dirty = list(
                dict.fromkeys(
                    list(self.loc_rib.prefixes())
                    + [
                        prefix
                        for rib in self.adj_rib_in.values()
                        for prefix in rib.prefixes()
                    ]
                )
            )
        changes = self._run_decision(dirty)
        self._propagate(changes)

    def rerun_decision(self, prefixes: list[Prefix]) -> list[RibChange]:
        """Re-run the decision process for ``prefixes`` and propagate.

        Public entry point for DiCE's route-selection exploration: after
        planting symbolic preference shadows on Adj-RIB-In routes, the
        explorer re-triggers selection through the same code path normal
        updates use.
        """
        changes = self._run_decision(prefixes)
        self._propagate(changes)
        return changes

    # -- introspection -----------------------------------------------------------------

    def established_peers(self) -> list[str]:
        """Neighbors whose session is Established."""
        return sorted(
            peer for peer, session in self.sessions.items()
            if session.is_established()
        )

    # -- checkpoint contract --------------------------------------------------------------

    def export_state(self) -> dict[str, Any]:
        """Full protocol state for DiCE checkpoints.

        Every container is built here; the routes, attributes, RIB
        changes and config inside are immutable and shared as they are.
        """
        state = super().export_state()
        state.update(
            {
                "config": self.config,
                "sessions": {
                    peer: session.export_state()
                    for peer, session in self.sessions.items()
                },
                # Each RIB as its routes alone, not keyed by prefix: a
                # dict's key is not always the ``route.prefix`` object
                # itself, and pickle would then write that prefix into
                # the snapshot twice.
                "adj_rib_in": {
                    peer: list(rib.routes())
                    for peer, rib in self.adj_rib_in.items()
                },
                "adj_rib_out": {
                    peer: list(rib.routes())
                    for peer, rib in self.adj_rib_out.items()
                },
                "loc_rib": list(self.loc_rib.routes()),
                "crash_count": self.crash_count,
                "update_handler_calls": self.update_handler_calls,
                "pending_export": {
                    peer: dict(pending)
                    for peer, pending in self._pending_export.items()
                },
                "damping": (
                    None if self.dampener is None
                    else self.dampener.export_state()
                ),
            }
        )
        return state

    def import_state(self, state: dict[str, Any]) -> None:
        """Restore from :meth:`export_state` output, rebuilding every
        container; each RIB is one bulk build, no mutator runs and the
        Loc-RIB journals nothing."""
        self.config = state["config"]
        self.sessions = {
            peer: Session.import_state(session_state)
            for peer, session_state in state["sessions"].items()
        }
        self.adj_rib_in = {
            peer: AdjRibIn(peer, routes)
            for peer, routes in state["adj_rib_in"].items()
        }
        self.adj_rib_out = {
            peer: AdjRibOut(peer, routes)
            for peer, routes in state["adj_rib_out"].items()
        }
        self.loc_rib = LocRib(routes=state["loc_rib"])
        self.crash_count = state["crash_count"]
        self.update_handler_calls = state["update_handler_calls"]
        self._pending_export = {
            peer: dict(pending)
            for peer, pending in state.get("pending_export", {}).items()
        }
        damping_state = state.get("damping")
        if damping_state is not None and self.config.damping is not None:
            self.dampener = FlapDampener(params=self.config.damping)
            self.dampener.import_state(damping_state)
        super().import_state(state)
