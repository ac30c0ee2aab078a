"""The DSP48E2 fixed-point skip changes nothing observable.

A slice whose last compute scheduled nothing, and whose ports and clock
enables still hold the values that compute saw, returns early. These
properties run random port, clock-enable and OPMODE/ALUMODE sequences
through a normal slice and, in lockstep, through one whose skip is
defeated. After every cycle both must agree on every output, every
register chain, every ``ConfigError`` and the whole trace.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp import (
    AluMode,
    DSP48E2,
    Dsp48Attributes,
    WMux,
    XMux,
    YMux,
    ZMux,
    cam_cell_attributes,
    pack_opmode,
)
from repro.errors import ConfigError
from repro.sim import Simulator, Trace


class AlwaysEvaluated(DSP48E2):
    """A slice that never records a fixed point, so every compute runs
    the full datapath."""

    @property
    def _held_ports(self):
        return None

    @_held_ports.setter
    def _held_ports(self, ports):
        pass


#: The attribute sets of tests/dsp/test_dsp48e2.py and
#: test_preadder_simd.py.
ATTRIBUTE_SETS = [
    Dsp48Attributes(),
    cam_cell_attributes(),
    cam_cell_attributes(mask=0xFFFF_0000_0000),
    Dsp48Attributes(pattern=0, mask=0xFF),
    Dsp48Attributes(areg=2, breg=2),
    Dsp48Attributes(use_mult=True, mreg=1),
    Dsp48Attributes(use_mult=True, mreg=0),
    Dsp48Attributes(use_mult=True, use_preadder=True, mreg=1),
    Dsp48Attributes(use_mult=True, use_preadder=True, dreg=0, adreg=0),
    Dsp48Attributes(rnd=5),
    Dsp48Attributes(simd="TWO24"),
    Dsp48Attributes(simd="FOUR12"),
    Dsp48Attributes(areg=0, breg=0, creg=0, mreg=0, preg=0,
                    use_pattern_detect=True, pattern=0, mask=0),
    Dsp48Attributes(use_pattern_detect=False),
]

PORTS = ("a", "b", "c", "d", "pcin", "carry_in")
ENABLES = ("ce_a", "ce_b", "ce_c", "ce_d", "ce_m", "ce_p")
REGISTERS = ("_a_pipe", "_b_pipe", "_c_pipe", "_m_pipe", "_d_pipe",
             "_ad_pipe", "p", "pcout", "carryout", "patterndetect",
             "patternbdetect")

# Few distinct values, so that ports often keep or return to a value and
# slices reach fixed points; wide ones exercise the port truncation.
words = st.sampled_from([0, 1, 5, 0x3FFFF, 1 << 47, (1 << 48) - 1,
                         (1 << 50) + 3])
opmodes = st.builds(
    pack_opmode,
    st.sampled_from(list(XMux)), st.sampled_from(list(YMux)),
    st.sampled_from(list(ZMux)), st.sampled_from(list(WMux)),
) | st.integers(min_value=0, max_value=511)
alumodes = st.sampled_from([int(mode) for mode in AluMode]) | st.integers(
    min_value=0, max_value=15)
# One cycle of stimulus: at most two (port, new value) changes, often
# none, so that slices settle and then wake on a single change.
changes = st.one_of(
    st.tuples(st.sampled_from(PORTS), words),
    st.tuples(st.sampled_from(ENABLES), st.booleans()),
    st.tuples(st.just("opmode"), opmodes),
    st.tuples(st.just("alumode"), alumodes),
)
cycles = st.lists(changes, max_size=2)


def snapshot(dsp):
    return tuple(getattr(dsp, name) for name in REGISTERS)


def events(trace):
    return [(e.cycle, e.component, e.signal, e.value) for e in trace]


def step(sim, dsp):
    """One edge; a ConfigError is part of the observed behaviour."""
    try:
        sim.step()
    except ConfigError as exc:
        dsp._pending.clear()
        return str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(
    attributes=st.sampled_from(ATTRIBUTE_SETS),
    opmode=opmodes,
    alumode=alumodes,
    stimulus=st.lists(cycles, min_size=1, max_size=40),
)
def test_skip_is_invisible(attributes, opmode, alumode, stimulus):
    slices = []
    for cls in (DSP48E2, AlwaysEvaluated):
        dsp = cls(attributes, name="dsp")
        trace = Trace()
        slices.append((dsp, Simulator(dsp, trace=trace), trace))
    initial = [("opmode", opmode), ("alumode", alumode)]
    for cycle in [initial] + stimulus + [[]] * 3:
        outcomes = []
        for dsp, sim, _trace in slices:
            for port, value in cycle:
                setattr(dsp, port, value)
            outcomes.append((step(sim, dsp), snapshot(dsp)))
        assert outcomes[0] == outcomes[1]
    (_, _, skipping), (_, _, evaluated) = slices
    assert events(skipping) == events(evaluated)


#: (OPMODE, ALUMODE) pairs under which each port reaches the output:
#: the CAM's XOR, an add with carry-in, and the multiplier plus cascade.
CONFIGS = [
    (pack_opmode(XMux.AB, YMux.ZERO, ZMux.C), int(AluMode.XOR)),
    (pack_opmode(XMux.AB, YMux.ZERO, ZMux.C), int(AluMode.ADD)),
    (pack_opmode(XMux.M, YMux.ZERO, ZMux.PCIN), int(AluMode.SUB)),
]
BASE = {"a": 5, "b": 0x3FFFF, "c": 1 << 47, "d": 3, "pcin": 1 << 30,
        "carry_in": 0}
OTHER = {"a": 6, "b": 1, "c": 0x55, "d": 9, "pcin": 7, "carry_in": 1}


@pytest.mark.parametrize("port", PORTS + ENABLES + ("opmode", "alumode"))
def test_every_port_wakes_a_settled_slice(port):
    """Settle both slices, then change ``port`` alone: the skipping
    slice must notice. For a clock enable, the slices settle with it
    low while the data ports move, so raising it loads a new value."""
    for attributes in ATTRIBUTE_SETS:
        for index, (opmode, alumode) in enumerate(CONFIGS):
            slices = [cls(attributes, name="dsp")
                      for cls in (DSP48E2, AlwaysEvaluated)]
            sims = [Simulator(dsp) for dsp in slices]

            def drive(cycles, **ports):
                for _ in range(cycles):
                    for dsp, sim in zip(slices, sims):
                        for name, value in ports.items():
                            setattr(dsp, name, value)
                        sim.step()
                    assert snapshot(slices[0]) == snapshot(slices[1])

            drive(4, opmode=opmode, alumode=alumode, **BASE)
            if port in ENABLES:
                drive(1, **{port: False})
                drive(4, **OTHER)
                drive(3, **{port: True})
            elif port in PORTS:
                drive(3, **{port: OTHER[port]})
            else:
                other = CONFIGS[(index + 1) % len(CONFIGS)]
                drive(3, **{port: other[port == "alumode"]})


def test_quiescent_slice_skips_and_still_traces():
    """A slice with steady ports stops evaluating its datapath, keeps
    tracing, and wakes on the next port change."""
    dsp = DSP48E2(cam_cell_attributes(), name="dsp")
    trace = Trace()
    sim = Simulator(dsp, trace=trace)
    dsp.opmode = pack_opmode(XMux.AB, YMux.ZERO, ZMux.C)
    dsp.alumode = int(AluMode.XOR)
    dsp.c = 0x55
    sim.step(3)
    assert dsp._held_ports is not None, "steady ports reach a fixed point"
    sim.step(2)
    # The traced p is the ALU output, which PREG takes at the next edge.
    assert [e.value for e in trace.events("dsp", "p")] == [0] + [0x55] * 4
    dsp.c = 0x54
    sim.step()
    assert dsp._held_ports is None
    sim.step()
    assert dsp.p == 0x54


def test_reset_clears_the_fixed_point():
    dsp = DSP48E2(cam_cell_attributes(), name="dsp")
    sim = Simulator(dsp)
    sim.step(3)
    assert dsp._held_ports is not None
    sim.reset()
    assert dsp._held_ports is None
