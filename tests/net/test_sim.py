"""Tests for the discrete-event simulator core."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.network import Network
from repro.net.node import Process
from repro.net.sim import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        order = []
        for label in "abc":
            sim.schedule(1.0, lambda tag=label: order.append(tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule(4.2, lambda: None)
        sim.run()
        assert sim.now == 4.2

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def outer():
            sim.schedule(1.0, lambda: seen.append(sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert seen == [2.0]


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, lambda: seen.append("x"))
        event.cancel()
        sim.run()
        assert seen == []

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.pending == 1


class TestRunBounds:
    def test_until_stops_before_later_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(10.0, lambda: seen.append(10))
        sim.run(until=5.0)
        assert seen == [1]
        assert sim.now == 5.0
        sim.run()
        assert seen == [1, 10]

    def test_until_advances_clock_even_when_idle(self):
        sim = Simulator()
        sim.schedule(0.5, lambda: None)
        sim.run(until=9.0)
        assert sim.now == 9.0

    def test_max_events(self):
        sim = Simulator()
        seen = []
        for index in range(5):
            sim.schedule(float(index + 1), lambda i=index: seen.append(i))
        sim.run(max_events=2)
        assert seen == [0, 1]

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_events_run_counter(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_run == 3


class TestDeterminism:
    def test_two_identical_runs_identical_history(self):
        def run_once():
            sim = Simulator(seed=9)
            history = []
            rng = sim.random.stream("test")

            def tick(n):
                history.append((round(sim.now, 6), n, rng.random()))
                if n < 20:
                    sim.schedule(rng.uniform(0.1, 1.0), lambda: tick(n + 1))

            sim.schedule(0.0, lambda: tick(0))
            sim.run()
            return history

        assert run_once() == run_once()


class TestPostpone:
    def test_a_later_deadline_moves_the_event_and_pushes_nothing(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, lambda: seen.append(sim.now))
        queued = len(sim._queue)
        assert sim.postpone(event, 2.0) is event
        assert len(sim._queue) == queued
        assert (event.time, sim.pending) == (2.0, 1)
        sim.run()
        assert seen == [2.0]
        assert sim.events_run == 1  # the stale entry is not an event

    def test_an_earlier_deadline_schedules_a_new_event(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(2.0, lambda: seen.append(sim.now))
        moved = sim.postpone(event, 1.0)
        assert moved is not event and event.cancelled
        sim.run()
        assert seen == [1.0]

    def test_a_cancelled_event_is_scheduled_afresh(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, lambda: seen.append(sim.now))
        event.cancel()
        moved = sim.postpone(event, 3.0)
        assert moved is not event and not moved.cancelled
        sim.run()
        assert seen == [3.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.postpone(event, -0.5)

    def test_a_moved_event_runs_after_events_scheduled_before_the_move(self):
        sim = Simulator()
        order = []
        event = sim.schedule(0.5, lambda: order.append("moved"))
        sim.schedule(1.0, lambda: order.append("earlier"))
        sim.postpone(event, 1.0)
        sim.schedule(1.0, lambda: order.append("later"))
        sim.run()
        assert order == ["earlier", "moved", "later"]


# -- postpone against cancel + schedule ----------------------------------------

TIMERS = ("a", "b", "chain")
DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.5])
PROGRAMS = st.lists(
    st.one_of(
        st.tuples(st.just("arm"), st.sampled_from(TIMERS), DELAYS),
        st.tuples(st.just("cancel"), st.sampled_from(TIMERS)),
        st.tuples(st.just("event"), DELAYS),
        st.tuples(st.just("run"), DELAYS),
        st.tuples(st.just("run_n"), st.integers(0, 3)),
        st.tuples(st.just("step")),
    ),
    max_size=40,
)


class Timers(Process):
    """Logs every expiry; ``chain`` re-arms ``a`` from inside the loop."""

    def __init__(self, log):
        super().__init__("p")
        self.log = log

    def on_timer(self, name):
        self.log.append((self.now, name))
        if name == "chain":
            self.set_timer("a", 0.5)


class EagerTimers(Timers):
    """The reference: every re-arm cancels the armed event and
    schedules a new one."""

    def set_timer(self, name, delay):
        self.cancel_timer(name)
        self._timers[name] = self.network.sim.schedule(
            delay, lambda: self._fire_timer(name)
        )


def play(process_type, program):
    """Everything observable while ``program`` runs on a fresh network:
    the firing log, and after each step the clock, ``events_run``,
    ``pending`` and the exported timers in dict order."""
    log = []
    network = Network()
    process = network.add_process(process_type(log))
    network.start()
    sim = network.sim
    trace = []
    for index, op in enumerate(program):
        kind = op[0]
        if kind == "arm":
            process.set_timer(op[1], op[2])
        elif kind == "cancel":
            process.cancel_timer(op[1])
        elif kind == "event":
            sim.schedule(op[1], lambda tag=index: log.append((sim.now, tag)))
        elif kind == "run":
            network.run(until=sim.now + op[1])
        elif kind == "run_n":
            network.run(max_events=op[1])
        else:
            sim.step()
        trace.append((
            sim.now, sim.events_run, sim.pending,
            list(process.export_state()["timers"].items()),
            [name for name in TIMERS if process.timer_armed(name)],
        ))
    network.run()
    trace.append((sim.now, sim.events_run, sim.pending))
    return log, trace


class TestPostponeMatchesCancelAndSchedule:
    @settings(max_examples=300, deadline=None)
    @given(PROGRAMS)
    def test_same_history(self, program):
        assert play(Timers, program) == play(EagerTimers, program)


def play_reserved(deadlines, triggers, order, later, reserved):
    """Run timers at ``deadlines`` (the i-th armed i-th) and, after
    them, plain events at ``later``; returns ``(time, label)`` of each
    event run.  Eagerly every timer is scheduled up front.  Reserved,
    the timers take reserved numbers: those with no trigger are pushed
    up front in ``order``, and timer ``k`` with trigger ``j`` is pushed
    when timer ``j`` runs, the way a deferred router's other timers are
    pushed when its earliest one builds it."""
    sim = Simulator()
    log = []
    pushed_by = {j: [k for k, t in enumerate(triggers) if t == j]
                 for j in range(len(deadlines))}
    base = sim.reserve(len(deadlines)) if reserved else 0

    def fire(k):
        log.append((sim.now, f"timer{k}"))
        if reserved:
            for dependent in pushed_by[k]:
                push(dependent)

    def push(k):
        sim.schedule_reserved(deadlines[k], base + k, lambda: fire(k))

    if reserved:
        for k in order:
            if triggers[k] is None:
                push(k)
    else:
        for k, deadline in enumerate(deadlines):
            sim.schedule(deadline, lambda k=k: fire(k))
    for index, delay in enumerate(later):
        sim.schedule(delay, lambda index=index: log.append(
            (sim.now, f"later{index}")))
    sim.run()
    return log


@st.composite
def reserved_programs(draw):
    deadlines = draw(st.lists(DELAYS, min_size=1, max_size=8))
    keys = [(deadline, k) for k, deadline in enumerate(deadlines)]
    # A timer may be pushed by any timer ordered before it.
    triggers = [
        draw(st.sampled_from(
            [None] + [j for j in range(len(keys)) if keys[j] < keys[k]]))
        for k in range(len(keys))
    ]
    order = draw(st.permutations(range(len(deadlines))))
    later = draw(st.lists(DELAYS, max_size=4))
    return deadlines, triggers, order, later


class TestReservedSequenceNumbers:
    @settings(max_examples=300, deadline=None)
    @given(reserved_programs())
    def test_run_as_if_scheduled_when_reserved(self, program):
        """Events under reserved numbers, pushed in any order — up front
        or by an event ordered before them — run in the order the same
        events run when scheduled eagerly, ties included."""
        assert (play_reserved(*program, reserved=True)
                == play_reserved(*program, reserved=False))

    def test_tied_deadlines_run_in_reserved_order(self):
        sim = Simulator()
        base = sim.reserve(3)
        order = []
        sim.schedule(1.0, lambda: order.append("after"))
        for k in (2, 0, 1):
            sim.schedule_reserved(1.0, base + k, lambda k=k: order.append(k))
        sim.run()
        assert order == [0, 1, 2, "after"]

    def test_reserving_moves_later_numbers_on(self):
        sim = Simulator()
        assert sim.reserve(4) == 0
        assert sim.schedule(0.0, lambda: None).seq == 4
        assert sim.reserve(0) == 5

    def test_no_reserved_event_in_the_past(self):
        sim = Simulator()
        base = sim.reserve(1)
        sim.run(until=2.0)
        with pytest.raises(ValueError):
            sim.schedule_reserved(1.0, base, lambda: None)
