"""Register-accurate functional model of the Xilinx DSP48E2 slice.

The model reproduces the dataflow of UG579 figure 1-1 at cycle
granularity:

- A/B input register chains (AREG/BREG in 0..2) feeding both the
  multiplier and the 48-bit ``A:B`` concatenation,
- the C input register (CREG),
- a 27x18 multiplier with optional MREG,
- the X/Y/Z/W multiplexers decoded from OPMODE,
- the 48-bit ALU (arithmetic add/sub and the two-input logic unit),
- the output register PREG and the pattern detector
  (``PATTERNDETECT = ((P ^ PATTERN) & ~MASK) == 0``), which is what the
  CAM cell uses as its match bit.

Clock enables (``ce_a`` etc.) gate each register chain, exactly like the
silicon CE pins; the CAM cell uses ``ce_a/ce_b`` as its *update* strobe
so a stored word is held until explicitly rewritten.

A CAM holds hundreds of slices that mostly sit still, so compute is
event-driven. Each compute schedules only the registers whose value
changes. A compute that schedules nothing leaves the slice at a fixed
point. Its next state is a function of its ports and its registers, so
while the ports (clock enables included) keep the values that compute
saw, every later compute would schedule nothing as well. It returns at
once, after emitting the trace samples it emitted last time, so a trace
is the same with or without the skip.
"""

from __future__ import annotations

import functools
from typing import List, NamedTuple, Optional

from repro.errors import ConfigError
from repro.dsp.attributes import Dsp48Attributes
from repro.dsp.opmode import (
    ALL_ONES,
    AluMode,
    WMux,
    XMux,
    YMux,
    ZMux,
    apply_logic,
    is_logic_mode,
    logic_function,
    unpack_opmode,
)
from repro.dsp.primitives import (
    A_WIDTH,
    B_WIDTH,
    DSP_WIDTH,
    concat_ab,
    mask_for,
    truncate,
)
from repro.sim.component import Component

#: The multiplier consumes A[26:0] (27 bits) and B[17:0] (18 bits).
MULT_A_WIDTH = 27

_A_MASK = mask_for(A_WIDTH)
_B_MASK = mask_for(B_WIDTH)
_MULT_A_MASK = mask_for(MULT_A_WIDTH)


class _Alu(NamedTuple):
    """One validated OPMODE/ALUMODE pair, as the ALU datapath uses it."""

    x: XMux
    y: YMux
    z: ZMux
    w: WMux
    mode: AluMode
    #: The X-op-Z logic function name, or ``None`` in arithmetic mode.
    logic: Optional[str]


@functools.lru_cache(maxsize=512)
def _decode_alu(opmode: int, alumode: int) -> _Alu:
    """Decode and validate OPMODE/ALUMODE (UG579 tables 2-4 to 2-8).

    Pure, so cached: a slice pays for the decode once per distinct
    pair, not per cycle. Invalid pairs raise :class:`ConfigError` on
    every call, since exceptions are not cached.
    """
    x_sel, y_sel, z_sel, w_sel = unpack_opmode(opmode)
    try:
        mode = AluMode(alumode)
    except ValueError:
        raise ConfigError(f"unsupported ALUMODE {alumode:#06b}")
    logic = None
    if is_logic_mode(mode):
        if (x_sel, y_sel) == (XMux.M, YMux.M):
            raise ConfigError(
                "logic-unit mode cannot select the multiplier on X and Y"
            )
        logic = logic_function(mode, y_sel)
    return _Alu(x_sel, y_sel, z_sel, w_sel, mode, logic)


def _clock_chain(updates: dict, name: str, pipe: List[int], value: int,
                 enable: bool) -> None:
    """Schedule a register chain's next state if the edge changes it."""
    if pipe and enable:
        shifted = [value] + pipe[:-1]
        if shifted != pipe:
            updates[name] = shifted


class DSP48E2(Component):
    """One DSP48E2 slice as a synchronous component.

    Input ports (assign before each cycle): :attr:`a`, :attr:`b`,
    :attr:`c`, :attr:`pcin`, :attr:`carry_in`, :attr:`opmode`,
    :attr:`alumode`, and the clock enables :attr:`ce_a`, :attr:`ce_b`,
    :attr:`ce_c`, :attr:`ce_m`, :attr:`ce_p`.

    Output ports (read after a cycle): :attr:`p`, :attr:`pcout`,
    :attr:`patterndetect`, :attr:`patternbdetect`, :attr:`carryout`.
    """

    def __init__(
        self,
        attributes: Optional[Dsp48Attributes] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        self.attributes = attributes if attributes is not None else Dsp48Attributes()
        self.reset_state()

    # ------------------------------------------------------------------
    def reset_state(self) -> None:
        attrs = self.attributes
        # Input ports.
        self.a = 0
        self.b = 0
        self.c = 0
        self.d = 0
        self.pcin = 0
        self.carry_in = 0
        self.opmode = 0
        self.alumode = int(AluMode.ADD)
        self.ce_a = True
        self.ce_b = True
        self.ce_c = True
        self.ce_d = True
        self.ce_m = True
        self.ce_p = True
        # Register chains (index 0 = closest to the port).
        self._a_pipe: List[int] = [0] * attrs.areg
        self._b_pipe: List[int] = [0] * attrs.breg
        self._c_pipe: List[int] = [0] * attrs.creg
        self._m_pipe: List[int] = [0] * attrs.mreg
        self._d_pipe: List[int] = [0] * attrs.dreg
        self._ad_pipe: List[int] = [0] * attrs.adreg
        # Output ports.
        self.p = 0
        self.pcout = 0
        self.carryout = 0
        self.patterndetect = False
        self.patternbdetect = False
        # Pattern detector operands.
        self._care = ~attrs.mask & ALL_ONES
        self._pattern_b = ~attrs.pattern & ALL_ONES
        # Fixed point (see the module docstring): the ports the last
        # compute saw when it scheduled nothing, else None, and the
        # trace samples it emitted.
        self._held_ports = None
        self._held_samples = (0, False)

    # ------------------------------------------------------------------
    def compute(self) -> None:
        ports = (
            self.a, self.b, self.c, self.d, self.pcin, self.carry_in,
            self.opmode, self.alumode, self.ce_a, self.ce_b, self.ce_c,
            self.ce_d, self.ce_m, self.ce_p,
        )
        if ports == self._held_ports:
            if self._tracer is not None:
                alu_out, pd = self._held_samples
                self.emit(p=alu_out, patterndetect=pd)
            return

        attrs = self.attributes
        a_port = self.a & _A_MASK
        b_port = self.b & _B_MASK
        c_port = self.c & ALL_ONES
        a_pipe = self._a_pipe
        b_pipe = self._b_pipe
        c_pipe = self._c_pipe
        a_reg = a_pipe[-1] if a_pipe else a_port
        b_reg = b_pipe[-1] if b_pipe else b_port
        c_reg = c_pipe[-1] if c_pipe else c_port

        # Pre-adder path (D + A, 27-bit wrap) feeding the multiplier
        # when AMULTSEL = "AD".
        d_port = self.d & _MULT_A_MASK
        d_pipe = self._d_pipe
        ad_pipe = self._ad_pipe
        d_reg = d_pipe[-1] if d_pipe else d_port
        ad_sum = (d_reg + (a_reg & _MULT_A_MASK)) & _MULT_A_MASK

        updates: dict = {}
        _clock_chain(updates, "_a_pipe", a_pipe, a_port, self.ce_a)
        _clock_chain(updates, "_b_pipe", b_pipe, b_port, self.ce_b)
        _clock_chain(updates, "_c_pipe", c_pipe, c_port, self.ce_c)
        _clock_chain(updates, "_d_pipe", d_pipe, d_port, self.ce_d)
        _clock_chain(updates, "_ad_pipe", ad_pipe, ad_sum, True)

        # Multiplier path (27x18, unsigned model).
        if attrs.use_mult:
            if attrs.use_preadder:
                mult_a = ad_pipe[-1] if ad_pipe else ad_sum
            else:
                mult_a = a_reg & _MULT_A_MASK
            product = (mult_a * b_reg) & ALL_ONES
            m_pipe = self._m_pipe
            m_value = m_pipe[-1] if m_pipe else product
            _clock_chain(updates, "_m_pipe", m_pipe, product, self.ce_m)
        else:
            m_value = 0

        alu = _decode_alu(self.opmode, self.alumode)
        alu_out, carry = self._evaluate_alu(alu, a_reg, b_reg, c_reg, m_value)
        if attrs.use_pattern_detect:
            care = self._care
            pd = ((alu_out ^ attrs.pattern) & care) == 0
            pbd = ((alu_out ^ self._pattern_b) & care) == 0
        else:
            pd = False
            pbd = False

        if attrs.preg:
            if self.ce_p:
                if alu_out != self.p:
                    updates["p"] = alu_out
                if alu_out != self.pcout:
                    updates["pcout"] = alu_out
                if carry != self.carryout:
                    updates["carryout"] = carry
                if pd != self.patterndetect:
                    updates["patterndetect"] = pd
                if pbd != self.patternbdetect:
                    updates["patternbdetect"] = pbd
            changed = bool(updates)
        else:
            # Combinational P output: visible within the same cycle.
            changed = bool(updates) or (
                (alu_out, alu_out, carry, pd, pbd)
                != (self.p, self.pcout, self.carryout, self.patterndetect,
                    self.patternbdetect)
            )
            self.p = alu_out
            self.pcout = alu_out
            self.carryout = carry
            self.patterndetect = pd
            self.patternbdetect = pbd
        if updates:
            self.schedule(**updates)
        if changed:
            self._held_ports = None
        else:
            self._held_ports = ports
            self._held_samples = (alu_out, pd)
        if self._tracer is not None:
            self.emit(p=alu_out, patterndetect=pd)

    # ------------------------------------------------------------------
    def _evaluate_alu(self, alu: _Alu, a_reg: int, b_reg: int, c_reg: int,
                      m_value: int):
        """(P, carry) of the decoded ALU; builds only the selected mux
        inputs."""
        x_sel = alu.x
        if x_sel == XMux.AB:
            x = (a_reg << B_WIDTH) | b_reg
        elif x_sel == XMux.ZERO:
            x = 0
        elif x_sel == XMux.M:
            x = m_value
        else:
            x = self.p
        z_sel = alu.z
        if z_sel == ZMux.C:
            z = c_reg
        elif z_sel == ZMux.ZERO:
            z = 0
        elif z_sel == ZMux.P or z_sel == ZMux.P_MACC:
            z = self.p
        elif z_sel == ZMux.PCIN:
            z = self.pcin & ALL_ONES
        elif z_sel == ZMux.PCIN_SHIFT17:
            z = (self.pcin & ALL_ONES) >> 17
        else:
            z = self.p >> 17
        if alu.logic is not None:
            return apply_logic(alu.logic, x, z), 0

        y_sel = alu.y
        if y_sel == YMux.ZERO:
            y = 0
        elif y_sel == YMux.M:
            y = m_value
        elif y_sel == YMux.ALL_ONES:
            y = ALL_ONES
        else:
            y = c_reg
        w_sel = alu.w
        if w_sel == WMux.ZERO:
            w = 0
        elif w_sel == WMux.P:
            w = self.p
        elif w_sel == WMux.RND:
            w = self.attributes.rnd
        else:
            w = c_reg

        simd = self.attributes.simd
        if simd == "ONE48":
            total = self._arith(alu.mode, z, w + x + y + self.carry_in)
            carry = (total >> DSP_WIDTH) & 1 if total >= 0 else 0
            return total & ALL_ONES, carry
        # SIMD: independent lanes with no cross-lane carries. The
        # carry-in only reaches lane 0 (UG579: CARRYIN per segment is
        # tied to the single CARRYIN for simple adds).
        lanes = 2 if simd == "TWO24" else 4
        lane_width = DSP_WIDTH // lanes
        lane_mask = mask_for(lane_width)
        alu_out = 0
        carry = 0
        for lane in range(lanes):
            shift = lane * lane_width
            z_lane = (z >> shift) & lane_mask
            operand = (
                ((w >> shift) & lane_mask)
                + ((x >> shift) & lane_mask)
                + ((y >> shift) & lane_mask)
                + (self.carry_in if lane == 0 else 0)
            )
            total = self._arith(alu.mode, z_lane, operand)
            if total >= 0 and (total >> lane_width) & 1:
                carry |= 1 << lane
            alu_out |= (total & lane_mask) << shift
        return alu_out, carry

    @staticmethod
    def _arith(alumode: AluMode, z: int, operand: int) -> int:
        """One ALU arithmetic evaluation (full-width or one SIMD lane)."""
        if alumode == AluMode.ADD:
            return z + operand
        if alumode == AluMode.SUB:
            return z - operand
        if alumode == AluMode.NOT_ADD:
            return -z + operand - 1
        return -(z + operand) - 1  # AluMode.NOT_SUB

    # ------------------------------------------------------------------
    # inspection helpers used by the CAM cell and by tests
    # ------------------------------------------------------------------
    @property
    def stored_ab(self) -> int:
        """Current 48-bit A:B register contents (the CAM stored word)."""
        a_reg = self._a_pipe[-1] if self._a_pipe else truncate(self.a, A_WIDTH)
        b_reg = self._b_pipe[-1] if self._b_pipe else truncate(self.b, B_WIDTH)
        return concat_ab(a_reg, b_reg)

    @property
    def held_c(self) -> int:
        """Current C register contents (the last latched search key)."""
        return self._c_pipe[-1] if self._c_pipe else truncate(self.c, DSP_WIDTH)
