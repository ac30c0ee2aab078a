"""The cycle engine's trace of a small CAM workload is frozen.

A traced small-unit ``CamSession`` runs updates, multi-query searches,
a delete-by-content and a reset. Its VCD must match the committed
golden byte for byte, and the full event list (every slice's ``p`` and
``patterndetect`` on every cycle, before the VCD drops repeats) must
match the recorded count and digest. A change to the simulation kernel
or the DSP48E2 model that alters any traced value, cycle or emission
fails here.

Regenerate only for an intended change of behaviour::

    PYTHONPATH=src python tests/sim/test_vcd_golden.py
"""

import hashlib
import os

from repro.core import CamSession, unit_for_entries
from repro.sim import trace_to_vcd

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens",
                      "cam_session_small.vcd")
#: Trace size and SHA-256 of ``Trace.to_text()`` for the same workload.
EVENTS = 3568
TEXT_SHA256 = "90aa5db45c98e7b814baa49cb4ad3438aacfeb21966594c8a448ad2d568c17c7"


def golden_session() -> CamSession:
    session = CamSession(
        unit_for_entries(32, block_size=8, data_width=16, bus_width=64,
                         default_groups=2),
        trace=True,
    )
    session.update([0x0011, 0x0022, 0x0033, 0x0044, 0x0055, 0x0066, 0x0077])
    session.search([0x0022, 0x0099, 0x0077, 0x0011, 0x1234])
    session.delete(0x0033)
    session.search([0x0033, 0x0044])
    session.idle(3)
    session.reset()
    session.update([0xBEEF, 0x0022, 0xFFFF])
    session.search([0xBEEF, 0x0011, 0xFFFF])
    return session


def test_vcd_matches_golden():
    trace = golden_session().trace
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        assert trace_to_vcd(trace) == handle.read()
    assert not trace.truncated
    assert len(trace) == EVENTS
    digest = hashlib.sha256(trace.to_text().encode("utf-8")).hexdigest()
    assert digest == TEXT_SHA256


if __name__ == "__main__":
    trace = golden_session().trace
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write(trace_to_vcd(trace))
    print(GOLDEN)
    print(f"EVENTS = {len(trace)}")
    print("TEXT_SHA256 = "
          f"{hashlib.sha256(trace.to_text().encode('utf-8')).hexdigest()!r}")
