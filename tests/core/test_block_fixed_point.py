"""A CAM block answers the same whether or not its slices skip.

Most slices of a block sit at a fixed point on most cycles, and their
compute returns early. This property drives random update, search,
delete and reset beats through a normal block and, in lockstep, through
one whose slices never skip, and requires the same results, stored
entries and trace after every cycle.
"""

from hypothesis import given, settings, strategies as st

from repro.core import (
    BlockConfig,
    CamBlock,
    CamType,
    CellConfig,
    binary_entry,
    ternary_entry,
)
from repro.dsp import DSP48E2
from repro.sim import Simulator, Trace

WIDTH = 8
SIZE = 8


class AlwaysEvaluated(DSP48E2):
    """A slice that never records a fixed point."""

    @property
    def _held_ports(self):
        return None

    @_held_ports.setter
    def _held_ports(self, ports):
        pass


def make_block(cam_type, skip):
    config = BlockConfig(
        cell=CellConfig(cam_type=cam_type, data_width=WIDTH),
        block_size=SIZE,
        bus_width=4 * WIDTH,
    )
    block = CamBlock(config, buffered=False)
    if not skip:
        for cell in block.cells:
            cell.dsp.__class__ = AlwaysEvaluated
    trace = Trace()
    return block, Simulator(block, trace=trace), trace


keys = st.integers(min_value=0, max_value=15)
beats = st.tuples(
    st.sampled_from(["idle", "update", "update", "reset"]),
    st.lists(st.tuples(keys, st.sampled_from([0, 0, 1, 0b11])),
             min_size=1, max_size=4),
    st.sampled_from(["none", "search", "search", "delete"]),
    keys,
)


@settings(max_examples=60, deadline=None)
@given(
    cam_type=st.sampled_from([CamType.BINARY, CamType.TERNARY]),
    program=st.lists(beats, min_size=1, max_size=30),
)
def test_block_skip_is_invisible(cam_type, program):
    blocks = [make_block(cam_type, skip) for skip in (True, False)]
    for write, words, lookup, key in program + [("idle", [], "none", 0)] * 5:
        reference = blocks[0][0]
        if write == "update" and reference.occupancy + len(words) > SIZE:
            write = "idle"
        observed = []
        for block, sim, _trace in blocks:
            if write == "update":
                if cam_type is CamType.TERNARY:
                    entries = [ternary_entry(v, m, WIDTH) for v, m in words]
                else:
                    entries = [binary_entry(v, WIDTH) for v, _ in words]
                block.issue_update(entries)
            elif write == "reset":
                block.issue_reset()
            if lookup == "search":
                block.issue_search(key)
            elif lookup == "delete":
                block.issue_delete(key)
            sim.step()
            observed.append((block.result_valid, block.result,
                             block.update_done, block.occupancy,
                             block.live_entries, block.stored_entries()))
        assert observed[0] == observed[1]
    (block, _, skipping), (_, _, evaluated) = blocks
    assert skipping.to_text() == evaluated.to_text()
    assert all(cell.dsp._held_ports is not None for cell in block.cells), (
        "after idle cycles every slice of the skipping block is at rest")
