"""Cycle driver for the two-phase synchronous simulation kernel."""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.component import Component
from repro.sim.trace import Trace


class Simulator:
    """Drives one synchronous clock domain over a set of component trees.

    Each :meth:`step` performs one clock cycle: every component in every
    registered tree runs its *compute* phase, then every component that
    scheduled an update *commits*. The current cycle number is available
    as :attr:`cycle` and starts at 0 (no edges have happened yet).

    The evaluation order is fixed at construction: the depth-first
    pre-order of each root in turn, so a parent always computes before
    its children (the combinational parent-to-child port rule). The
    trees are frozen from then on; ``add_child`` on any of their
    components raises :class:`SimulationError`.

    Example
    -------
    >>> from repro.sim import Component, Simulator
    >>> class Counter(Component):
    ...     def reset_state(self):
    ...         self.value = 0
    ...     def compute(self):
    ...         self.schedule(value=self.value + 1)
    >>> counter = Counter()
    >>> sim = Simulator(counter)
    >>> sim.step(3)
    >>> counter.value
    3
    """

    def __init__(self, *components: Component, trace: Optional[Trace] = None) -> None:
        if not components:
            raise SimulationError("Simulator needs at least one component")
        self._roots: List[Component] = list(components)
        self._cycle = 0
        self._trace = trace
        order: List[Component] = []
        for root in self._roots:
            if not isinstance(root, Component):
                raise SimulationError(
                    f"Simulator roots must be Components, got {type(root).__name__}"
                )
            if trace is not None:
                root.attach_tracer(trace)
            order.extend(root.iter_tree())
        for component in order:
            component._simulated = True
        self._components: Tuple[Component, ...] = tuple(order)
        self.reset()

    # ------------------------------------------------------------------
    @property
    def cycle(self) -> int:
        """Number of clock edges simulated since the last reset."""
        return self._cycle

    @property
    def trace(self) -> Optional[Trace]:
        """The attached trace object, if tracing is enabled."""
        return self._trace

    def reset(self) -> None:
        """Synchronous reset: restore all register state, zero the cycle."""
        for root in self._roots:
            root.reset_tree()
        self._cycle = 0

    # ------------------------------------------------------------------
    def step(self, cycles: int = 1) -> None:
        """Advance the clock by ``cycles`` edges."""
        if cycles < 0:
            raise SimulationError(f"cannot step a negative cycle count ({cycles})")
        components = self._components
        for _ in range(cycles):
            if self._trace is not None:
                self._trace.begin_cycle(self._cycle)
            for component in components:
                component.compute()
            for component in components:
                if component._pending:
                    component.commit()
            self._cycle += 1

    def run_until(
        self,
        condition: Callable[[], bool],
        max_cycles: int = 10_000,
    ) -> int:
        """Step until ``condition()`` is true; return cycles consumed.

        The condition is evaluated *after* each edge. Raises
        :class:`SimulationError` if ``max_cycles`` edges pass without the
        condition holding, so a wedged model fails loudly instead of
        spinning forever.
        """
        start = self._cycle
        if condition():
            return 0
        for _ in range(max_cycles):
            self.step()
            if condition():
                return self._cycle - start
        raise SimulationError(
            f"condition not met within {max_cycles} cycles "
            f"(started at cycle {start})"
        )

    def drain(self, idle: Callable[[], bool], max_cycles: int = 10_000) -> int:
        """Alias of :meth:`run_until` with pipeline-drain phrasing."""
        return self.run_until(idle, max_cycles=max_cycles)


def elapse(components: Iterable[Component], cycles: int) -> Simulator:
    """Convenience: build a simulator over ``components`` and step it."""
    sim = Simulator(*components)
    sim.step(cycles)
    return sim
