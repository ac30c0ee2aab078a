"""Unit tests for the cycle driver."""

import pytest

from repro.errors import SimulationError
from repro.sim import Component, Simulator, Trace, elapse


class Counter(Component):
    def reset_state(self):
        self.value = 0

    def compute(self):
        self.schedule(value=self.value + 1)
        self.emit(value=self.value)


def test_requires_components():
    with pytest.raises(SimulationError, match="at least one component"):
        Simulator()


def test_rejects_non_component_roots():
    with pytest.raises(SimulationError, match="must be Components"):
        Simulator("not a component")


def test_step_advances_cycle():
    sim = Simulator(Counter())
    assert sim.cycle == 0
    sim.step(5)
    assert sim.cycle == 5


def test_negative_step_raises():
    sim = Simulator(Counter())
    with pytest.raises(SimulationError, match="negative"):
        sim.step(-1)


def test_multiple_roots_tick_together():
    a, b = Counter("a"), Counter("b")
    sim = Simulator(a, b)
    sim.step(4)
    assert a.value == 4
    assert b.value == 4


def test_reset_restores_state_and_cycle():
    counter = Counter()
    sim = Simulator(counter)
    sim.step(7)
    sim.reset()
    assert sim.cycle == 0
    assert counter.value == 0


def test_run_until_counts_cycles():
    counter = Counter()
    sim = Simulator(counter)
    consumed = sim.run_until(lambda: counter.value == 9)
    assert consumed == 9
    assert sim.cycle == 9


def test_run_until_returns_zero_when_already_true():
    counter = Counter()
    sim = Simulator(counter)
    sim.step(3)
    assert sim.run_until(lambda: counter.value >= 2) == 0


def test_run_until_timeout_raises():
    counter = Counter()
    sim = Simulator(counter)
    with pytest.raises(SimulationError, match="not met within 10 cycles"):
        sim.run_until(lambda: False, max_cycles=10)


def test_trace_attached_to_tree():
    trace = Trace()
    counter = Counter()
    sim = Simulator(counter, trace=trace)
    sim.step(3)
    values = [e.value for e in trace.events("Counter", "value")]
    assert values == [0, 1, 2]
    assert sim.trace is trace


def test_elapse_helper():
    counter = Counter()
    sim = elapse([counter], 6)
    assert sim.cycle == 6
    assert counter.value == 6


def test_add_child_after_simulator_raises():
    """The evaluation order is fixed at construction, so a late child
    would never be stepped; adding one fails loudly instead."""
    parent = Counter("parent")
    child = parent.add_child(Counter("child"))
    sim = Simulator(parent)
    for component in (parent, child):
        with pytest.raises(SimulationError, match="already under a Simulator"):
            component.add_child(Counter("late"))
    sim.step(2)
    assert parent.value == child.value == 2


def test_step_commits_only_what_was_scheduled():
    """A component that scheduled nothing is not committed."""
    class Idle(Component):
        def commit(self):
            raise AssertionError("nothing was scheduled")

    counter = Counter()
    sim = Simulator(counter, Idle())
    sim.step(3)
    assert counter.value == 3
