"""Generators and rewrites for circuits built from global MS pulses.

Each generator that implements a standard unitary is returned as a
ConstructionSpec pairing the pulse-based circuit with the action of that
unitary on its data register: a basis-index map (Toffoli, the CNOT fans
and the encoder), signed on the all-ones index for the controlled-Z gates.
An action builds its index array on first use, so making a spec costs no
2^d work, and a spec builds its circuit on the first read of
``generated``, so checking against the action builds no gate.  The
verification harness checks the circuit against the action up to a
global phase (on the data register when ancillas are involved).

The local-gate references are kept as circuits that no check simulates:
multi-controlled phases are synthesized exactly from the parity expansion
x1*...*xm = sum over nonempty subsets S of (-1)^(|S|+1)(xor S) / 2^(m-1),
realized as CNOT folds plus RZ, with the residual scalar tracked in an
explicit global-phase gate.  The spin-echo, inverse-pulse and RZ-merge
rewrites are single left-to-right passes over per-wire gate stacks; each
calls its matcher only on the gate kinds it can match (XX and GMS, GMS,
RZ), and every other gate just pushes its slot.  The shrink rewrite grows
each subset pulse to full width in one step and shares that object across
all of its 2^k positions; the spin-echo pass memoises each collapse per
pulse object and echo wire, so the round trip builds each distinct pulse
once.  A collapse or a grown pulse builds its pair table in one pass over
its parent's canonical table.

Values derived here from checked values are built unchecked
(``circuit._derived``; the ``circuit`` docstring names each call site and
the check it keeps).  The Toffoli chain maps each of its units once, from
two constant templates built once, and its uncompute half reuses the
compute units' gate objects; the shrink makes one RZ(pi)/RZ(-pi) echo pair
per wire.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import combinations
from typing import Callable, Container, Iterable, Sequence

import numpy as np

from .circuit import (ArgumentError, Circuit, Gate, PerPair, Uniform, _derived,
                      _nonfinite, check_register, cnot, gms, global_phase, guard, h,
                      rx, ry, rz, xx)
from .sim import AllOnesSign, IndexMap

PI = math.pi
MAX_SHRINK_PULSES = 1 << 16
"""Most pulses ``gms_shrink`` may emit.  Toffoli-10 emits 10752 and
Toffoli-11 would emit 92160; at 13 qubits each emitted pulse held about
0.5 kB of gates and wrote about 0.5 kB of JSON."""


@dataclass(frozen=True, eq=False)
class ConstructionSpec:
    """A generated circuit paired with the action of the unitary it must
    implement: ``act(cols)`` maps a (2^d, batch) array of data-register
    states to their images; a basis permutation up to signs is an
    ``IndexMap``, compared in place, and the transform gives its rows one
    block at a time (``sim.BitReversedIFFT``), so a check holds no 2^d x 2^d
    reference; ``act.matrix()``, the dense unitary, serves tests.  Nothing
    of size 2^d is computed before first use, and the circuit is built by
    ``build`` on the first read of ``generated`` and kept: a check against
    the action builds no gate.  Each construction checks its arguments
    before it returns the spec, and its signature holds its parameters.
    Specs compare by identity."""

    build: Callable[[], Circuit] = field(repr=False)
    act: Callable = field(repr=False)

    @cached_property
    def generated(self) -> Circuit:
        return self.build()


def _cnot_map(d: int, cnots: Iterable[tuple[int, int]]) -> np.ndarray:
    """Basis-index map of a CNOT list applied in order, computed for all
    2^d indices at once: each CNOT XORs its control bit into its target."""
    x = np.arange(1 << d)
    for c, t in cnots:
        x ^= (x >> (d - 1 - c) & 1) << (d - 1 - t)
    return x


def _toffoli_map(n: int) -> np.ndarray:
    """Flip the target (wire n-1, the lowest bit) when every control is
    set: only the last two indices swap."""
    x = np.arange(1 << n)
    x[[-2, -1]] = x[[-1, -2]]
    return x


def _cnots_action(d: int, cnots: Sequence[tuple[int, int]]) -> IndexMap:
    return IndexMap(d, lambda: _cnot_map(d, cnots))


def _toffoli_action(n: int) -> IndexMap:
    return IndexMap(n, lambda: _toffoli_map(n))


def _pulse(qubits: tuple, profile) -> Gate:
    """A GMS on sorted, distinct wires whose profile covers exactly their
    pairs, built unchecked."""
    return _derived(Gate, kind="GMS", qubits=qubits, theta=None, profile=profile)


def embed(gates: Iterable[Gate], wires: Sequence[int]) -> list[Gate]:
    """Remap gates of a small circuit onto the given wires of a wider one.

    Position-dependent profiles (exponential, power-law) are frozen into
    per-pair tables first, since wire distances change under the mapping.

    The map is checked once, with ``Gate``'s messages: the wires it gives
    the gates' qubits must be distinct and non-negative (entries no gate
    uses are not read), so each gate's image keeps every check its source
    passed and is built unchecked; a non-uniform pulse's table, re-sorted
    on the new wires, takes ``PerPair``'s checks.
    """
    gates = list(gates)
    used = {q for g in gates for q in g.qubits}
    images = {wires[q] for q in used}
    if len(images) != len(used):
        raise ValueError("gate qubits must be distinct")
    if min(images, default=0) < 0:
        raise ValueError("negative qubit index")
    out = []
    for g in gates:
        qs = tuple(wires[q] for q in g.qubits)
        if g.kind != "GMS":
            out.append(_derived(Gate, kind=g.kind, qubits=qs, theta=g.theta, profile=None))
        elif isinstance(g.profile, Uniform):
            out.append(_pulse(tuple(sorted(qs)), g.profile))
        else:
            table = tuple((wires[i], wires[j], chi) for i, j, chi in g.pair_angles())
            out.append(gms(qs, PerPair(table)))
    return out


# ---------------------------------------------------------------------------
# Exact local-gate references (the circuits behind the actions above; no
# check simulates them)
# ---------------------------------------------------------------------------

def parity_phase_gates(qubits: Sequence[int], coeff: float) -> tuple[list[Gate], float]:
    """Gates for diag phase exp(i*coeff*(xor of qubits)), plus the scalar
    correction (coeff/2) the caller must fold into a global-phase gate."""
    target = qubits[-1]
    folds = [cnot(q, target) for q in qubits[:-1]]
    unfolds = [cnot(q, target) for q in reversed(qubits[:-1])]
    return folds + [rz(target, coeff)] + unfolds, coeff / 2


def controlled_z_reference(m: int) -> Circuit:
    """Exact m-qubit controlled-Z ladder: diag(1, ..., 1, -1)."""
    check_register(m)
    gates: list[Gate] = []
    scalar = 0.0
    for size in range(1, m + 1):
        coeff = PI * (-1) ** (size + 1) / 2 ** (m - 1)
        for subset in combinations(range(m), size):
            sub_gates, extra = parity_phase_gates(subset, coeff)
            gates.extend(sub_gates)
            scalar += extra
    gates.append(global_phase(scalar))
    return Circuit(m, tuple(gates))


def toffoli_reference(n: int) -> Circuit:
    """n-qubit Toffoli (controls 0..n-2, target n-1) from CNOT/RZ/H."""
    target = n - 1
    ladder = controlled_z_reference(n)
    return Circuit(n, (h(target),) + ladder.gates + (h(target),))


# ---------------------------------------------------------------------------
# Fan constructions
# ---------------------------------------------------------------------------

def _cnot_xx_gates(control: int, target: int) -> list[Gate]:
    return [ry(control, PI / 2), xx(control, target, PI / 2),
            rx(control, -PI / 2), rx(target, -PI / 2), ry(control, -PI / 2)]


def _fan_gates(control: int, targets: Sequence[int]) -> list[Gate]:
    """Shared-control CNOT fan as two pulses (one for a single target).

    The control's trailing RX angle accumulates one -pi/2 per target, which
    is what makes the pulse pair equal the whole CNOT set at once.
    """
    targets = sorted(targets)
    if len(targets) == 1:
        return _cnot_xx_gates(control, targets[0])
    support = sorted([control] + targets)
    gates = [ry(control, PI / 2),
             gms(support, Uniform(PI / 2)),
             gms(targets, Uniform(-PI / 2)),
             rx(control, -len(targets) * PI / 2)]
    gates += [rx(t, -PI / 2) for t in targets]
    gates.append(ry(control, -PI / 2))
    return gates


def star_coupling(n: int, hub: int = 0, chi: float = PI / 2) -> Circuit:
    """Two uniform pulses leaving only the hub's couplings active:
    full-register GMS(chi) then GMS(-chi) on the hub's complement."""
    check_register(n, 3, hub=hub)
    return Circuit(n, tuple(_star_gates(range(n), hub, chi)))


def _star_gates(qubits: Iterable[int], hub: int, chi: float) -> list[Gate]:
    qubits = sorted(qubits)
    rest = [q for q in qubits if q != hub]
    gates = [gms(qubits, Uniform(chi))]
    if len(rest) >= 2:
        gates.append(gms(rest, Uniform(-chi)))
    return gates


def fanout(n: int, control: int = 0) -> ConstructionSpec:
    check_register(n, 2, control=control)
    targets = [q for q in range(n) if q != control]
    return ConstructionSpec(lambda: Circuit(n, tuple(_fan_gates(control, targets))),
                            _cnots_action(n, [(control, t) for t in targets]))


def fanin(n: int, target: int = 0) -> ConstructionSpec:
    """Shared-target CNOT set: Hadamard conjugation of the fan-out."""
    check_register(n, 2, target=target)
    controls = [q for q in range(n) if q != target]

    def build():
        layer = [h(q) for q in range(n)]
        return Circuit(n, tuple(layer + _fan_gates(target, controls) + layer))

    return ConstructionSpec(build, _cnots_action(n, [(c, target) for c in controls]))


def parity_measure_prefix(n: int, target: int = 0) -> Circuit:
    """Fan-in truncated after its first pulse.

    Only the measured wire's dressing is kept; the dropped second pulse and
    target dressings act entirely on other wires, so the measured wire's
    Z statistics match the full fan-in on every basis input.
    """
    check_register(n, 3, target=target)
    gates = [h(q) for q in range(n)]
    gates += [ry(target, PI / 2),
              gms(range(n), Uniform(PI / 2)),
              rx(target, -(n - 1) * PI / 2),
              ry(target, -PI / 2),
              h(target)]
    return Circuit(n, tuple(gates))


def cnot_via_xx(control: int = 0, target: int = 1, n: int | None = None) -> ConstructionSpec:
    if n is None:
        n = max(control, target) + 1
    check_register(n, control=control, target=target)
    return ConstructionSpec(lambda: Circuit(n, tuple(_cnot_xx_gates(control, target))),
                            _cnots_action(n, [(control, target)]))


def cnot_via_4gms(n: int, control: int = 0, target: int = 1) -> ConstructionSpec:
    """CNOT from four global pulses: two star isolations around the
    control, one on the whole register and one on the register less the
    target, leave a single XX(pi/2) between control and target, then
    standard dressing.  Each isolation is a pulse on its wires and one on
    its leaves, so the pulses span n, n - 1, n - 1 and n - 2 wires."""
    check_register(n, 3, control=control, target=target)

    def build():
        keep = [q for q in range(n) if q != target]
        gates = [ry(control, PI / 2)]
        gates += _star_gates(range(n), control, PI / 2)
        gates += _star_gates(keep, control, -PI / 2)
        gates += [rx(control, -PI / 2), rx(target, -PI / 2), ry(control, -PI / 2)]
        return Circuit(n, tuple(gates))

    return ConstructionSpec(build, _cnots_action(n, [(control, target)]))


# ---------------------------------------------------------------------------
# [[15,1,3]] Reed-Muller encoder (T-state distillation circuit)
# ---------------------------------------------------------------------------

# The five fan columns of the encoder as (control wire, target wires).
TDISTILL_FANS = (
    (0, (6, 7, 9, 10, 11, 12, 14)),
    (1, (5, 7, 8, 10, 11, 13, 14)),
    (2, (4, 7, 8, 9, 12, 13, 14)),
    (3, (4, 5, 6, 10, 12, 13, 14)),
    (14, (4, 5, 6, 8, 9, 11)),
)


def tdistill() -> ConstructionSpec:
    """The 34-CNOT encoder as five fan columns of two pulses each."""
    cnots = [(c, t) for c, ts in TDISTILL_FANS for t in ts]
    return ConstructionSpec(
        lambda: Circuit(15, tuple(g for c, ts in TDISTILL_FANS for g in _fan_gates(c, ts))),
        _cnots_action(15, cnots))


# ---------------------------------------------------------------------------
# Phase-polynomial constructions
# ---------------------------------------------------------------------------

def phase_polynomial_identity(n: int, theta: float) -> Circuit:
    """Hadamard-conjugated uniform pulse: applies phase exp(i*theta) to the
    parity of every qubit pair, up to one global phase."""
    check_register(n, 2)
    layer = [h(q) for q in range(n)]
    return Circuit(n, tuple(layer + [gms(range(n), Uniform(theta))] + layer))


def ccz_3gms() -> ConstructionSpec:
    """Doubly-controlled Z on wires 0..2 from three pulses and one ancilla.

    The ancilla's parity rotation is about Y, not Z: with an odd number of
    data wires the pulse pair parks the ancilla in a Y eigenbasis (the
    conditional X rotation it accumulates is +-pi/2 rather than 0 or pi),
    so only a Y rotation is diagonal there.  A Z rotation in that slot
    leaks 0.38 of the ancilla population; see the erratum note in the test
    suite.
    """

    def build():
        a, b, c, anc = 0, 1, 2, 3
        gates = [rz(a, PI / 4), rz(b, PI / 4), h(c),
                 ry(a, PI / 2), ry(b, PI / 2), rx(c, PI / 4),
                 gms((a, b, c, anc), Uniform(PI / 2)),
                 gms((a, b, c), Uniform(-PI / 4)), ry(anc, PI / 4),
                 gms((a, b, c, anc), Uniform(-PI / 2)),
                 ry(a, -PI / 2), ry(b, -PI / 2), h(c)]
        return Circuit(4, tuple(gates), frozenset({anc}))

    return ConstructionSpec(build, AllOnesSign(3))


def cccz_4gms() -> ConstructionSpec:
    """Triply-controlled Z on wires 0..3 from four pulses and one ancilla."""

    def build():
        a, b, c, d, anc = 0, 1, 2, 3, 4
        allq = (a, b, c, d, anc)
        gates = [rz(a, PI / 8), rz(b, PI / 8), rz(c, PI / 8), h(d),
                 ry(a, PI / 2), ry(b, PI / 2), ry(c, PI / 2), rx(d, PI / 8),
                 gms(allq, Uniform(PI / 2)),
                 rz(anc, -PI / 8),
                 ry(anc, PI / 2),
                 gms(allq, Uniform(PI / 8)),
                 gms((a, b, c, d), Uniform(-PI / 4)), ry(anc, -PI / 2),
                 gms(allq, Uniform(-PI / 2)),
                 ry(a, -PI / 2), ry(b, -PI / 2), ry(c, -PI / 2), h(d)]
        return Circuit(5, tuple(gates), frozenset({anc}))

    return ConstructionSpec(build, AllOnesSign(4))


def cccz_3gms() -> ConstructionSpec:
    """Triply-controlled Z from three full-register pulses: the four-pulse
    form after shrinking its subset pulse and cancelling the inverse pair."""

    def build():
        a, b, c, d, anc = 0, 1, 2, 3, 4
        allq = (a, b, c, d, anc)
        gates = [rz(a, PI / 8), rz(b, PI / 8), rz(c, PI / 8), h(d),
                 ry(a, PI / 2), ry(b, PI / 2), ry(c, PI / 2), rx(d, PI / 8),
                 gms(allq, Uniform(PI / 2)),
                 ry(anc, -PI / 2), rx(anc, PI / 8),
                 gms(allq, Uniform(-PI / 8)),
                 ry(anc, PI / 2),
                 gms(allq, Uniform(-PI / 2)),
                 ry(a, -PI / 2), ry(b, -PI / 2), ry(c, -PI / 2), h(d)]
        return Circuit(5, tuple(gates), frozenset({anc}))

    return ConstructionSpec(build, AllOnesSign(4))


def toffoli3_gms() -> ConstructionSpec:
    """Toffoli on 3 wires (target 2) from three size-3 pulses, no ancilla."""

    def build():
        gates = [ry(0, PI / 2), ry(1, PI / 2), ry(2, PI / 2), rz(2, PI / 4),
                 gms((0, 1, 2), Uniform(PI / 2)),
                 rx(0, -PI / 2), rx(1, -PI / 2), rx(2, -PI / 2), rz(2, -PI / 2),
                 rx(0, -PI / 4), rx(1, -PI / 4), rx(2, -PI / 4),
                 gms((0, 1, 2), Uniform(PI / 4)),
                 rz(2, PI / 2),
                 gms((0, 1, 2), Uniform(PI / 2)),
                 rx(0, PI / 2), rx(1, PI / 2), rx(2, PI / 2),
                 ry(0, -PI / 2), ry(1, -PI / 2), ry(2, -PI / 2)]
        return Circuit(3, tuple(gates))

    return ConstructionSpec(build, _toffoli_action(3))


def toffoli4_7gms() -> ConstructionSpec:
    """Ancilla-free Toffoli-4 (target 3) from seven pulses."""

    def build():
        sub = (0, 1, 2)
        allq = (0, 1, 2, 3)
        gates = [ry(0, PI / 2), ry(1, PI / 2), ry(2, PI / 2), ry(3, PI / 2),
                 gms(allq, Uniform(PI / 2)),
                 rx(0, -PI / 2), rx(1, -PI / 2), rx(2, -PI / 2), rx(3, -PI / 2),
                 gms(sub, Uniform(-PI / 8)), ry(3, PI / 2),
                 gms(allq, Uniform(PI / 8)),
                 ry(2, -PI / 2), ry(3, -PI / 2),
                 gms(sub, Uniform(PI / 2)),
                 rz(2, -PI / 8), rz(3, -PI / 8),
                 gms(sub, Uniform(-PI / 2)),
                 ry(2, PI / 2),
                 rx(0, PI / 2), rx(1, PI / 2), rx(2, PI / 2), rx(3, PI / 2),
                 gms(allq, Uniform(-PI / 2)),
                 ry(3, -PI / 2),
                 rx(0, PI / 8), rx(1, PI / 8), rx(2, PI / 8), rx(3, PI / 8),
                 gms(allq, Uniform(-PI / 8)),
                 ry(3, PI / 2),
                 ry(0, -PI / 2), ry(1, -PI / 2), ry(2, -PI / 2), ry(3, -PI / 2)]
        return Circuit(4, tuple(gates))

    return ConstructionSpec(build, _toffoli_action(4))


@cache
def _unit_gates(width: int) -> tuple[Gate, ...]:
    """The constant gates of a Toffoli-chain unit on wires 0.., built once:
    the three-pulse Toffoli-4 (width 4, target 3, with a helper on wire 4
    that enters and leaves |0>) or the ancilla-free Toffoli-3 (width 3)."""
    if width == 4:
        return (h(3), *cccz_3gms().generated.gates, h(3))
    return toffoli3_gms().generated.gates


def toffoli_n(n: int) -> ConstructionSpec:
    """Multiply-controlled NOT from a chain of three-pulse Toffoli-4 units.

    Controls 0..n-2, target n-1; compute units AND pairs of controls into
    fresh tree ancillas, a final unit hits the target, then the computes
    run in reverse.  Odd n seeds the chain with one Toffoli-3 pair.  Pulse
    count: 3n-9 for even n, 3n-6 for odd n; every ancilla returns to |0>.
    Each unit maps a shared template onto its wires once (``embed``, which
    checks only the wire map), and the uncomputes reuse the compute units'
    gate objects, so the chain checks no gate once the templates exist.
    """
    check_register(n, 4)

    def build():
        controls, target = list(range(n - 1)), n - 1
        first = 3 if n % 2 == 0 else 2  # controls the first unit ANDs
        helper = n + (n - 1 - first) // 2  # after the tree ancillas; shared by the units
        # each unit ANDs its inputs into its last wire: the first unit's inputs
        # are controls, each later unit's the previous output and two controls
        inputs = [controls[:first]] + [controls[k:k + 2] for k in range(first, n - 1, 2)]
        units, acc = [], []
        for ins, out in zip(inputs, [*range(n, helper), target]):
            units.append((*acc, *ins, out))
            acc = [out]
        mapped = [embed(_unit_gates(len(unit)), [*unit, helper]) for unit in units]
        # the computes, the final unit, then the computes' gates again, reversed
        gates = tuple(g for block in mapped + mapped[-2::-1] for g in block)
        return _derived(Circuit, n_qubits=helper + 1, gates=gates,
                        ancillas=frozenset(range(n, helper + 1)))

    return ConstructionSpec(build, _toffoli_action(n))


# ---------------------------------------------------------------------------
# Rewrites
# ---------------------------------------------------------------------------

def _pair_table(rows: tuple) -> PerPair:
    """A ``PerPair`` of rows canonical by construction (float couplings,
    i < j, pairs ascending), built unchecked once every coupling is found
    finite, with ``PerPair``'s refusal."""
    chis = [chi for _, _, chi in rows]
    if not all(map(math.isfinite, chis)):
        raise _nonfinite(chis)
    return _derived(PerPair, table=rows)


def _grow(gate: Gate, missing: Sequence[int]) -> Gate:
    """Grow a GMS over the k wires ``missing`` too, in one step, to the
    pulse that k levels of halving by one spectator wire each would give.

    Own pairs couple at angle/2**k.  A uniform profile stays uniform; a
    position-based one couples the first spectator by its own distance law,
    also at 1/2**k, and later ones at 0; an explicit table couples every
    spectator at 0.  Spectator couplings cancel between the echoed pulses
    whatever their value.  The table is one pass over the grown pairs and,
    in the same order, over the pulse's canonical table, so the grown
    pulse is built unchecked but for its couplings' finiteness.
    """
    scale = 2 ** len(missing)
    grown = tuple(sorted((*gate.qubits, *missing)))
    prof = gate.profile
    if isinstance(prof, Uniform):
        return _pulse(grown, Uniform(prof.theta / scale))
    own, angles = set(gate.qubits), iter(gate.pair_angles())
    first = missing[0]
    spectator = {} if isinstance(prof, PerPair) else {
        (min(q, first), max(q, first)): prof.angle(q, first) / scale for q in gate.qubits}
    return _pulse(grown, _pair_table(tuple([
        (i, j, next(angles)[2] / scale if i in own and j in own else spectator.get((i, j), 0.0))
        for i, j in combinations(grown, 2)])))


def gms_shrink(circuit: Circuit) -> Circuit:
    """Rewrite subset pulses to full-register pulses.

    A GMS missing k wires becomes 2**k full-register pulses at geometrically
    halved angles, each exclusion level wrapped in an RZ(pi)/RZ(-pi) echo on
    the reintroduced wire; the echo flips that wire's couplings so they
    cancel while the original ones double back to strength.

    Every one of the 2**k pulses is the same gate, so it is grown to full
    width once, in one step (``_grow``), and that single object fills all
    2**k positions: the sequence for excluded wires l..k is the one for
    wires l+1..k, RZ(pi) on wire l, that sequence again, RZ(-pi).  Each
    wire's RZ(pi)/RZ(-pi) echo pair is made once, too.

    The pulses it would emit are counted first and held to
    ``MAX_SHRINK_PULSES``: a circuit above it raises ``GuardError``.
    """
    n = circuit.n_qubits
    guard("shrink", sum(1 << (n - len(g.qubits)) for g in circuit.gates if g.kind == "GMS"),
          MAX_SHRINK_PULSES, "pulses")
    echoes = [(rz(q, PI), rz(q, -PI)) for q in range(n)]
    out: list[Gate] = []
    for g in circuit.gates:
        if g.kind != "GMS" or len(g.qubits) == n:
            out.append(g)
            continue
        missing = [q for q in range(n) if q not in g.qubits]
        seq = [_grow(g, missing)]
        for extra in reversed(missing):
            on, off = echoes[extra]
            seq = seq + [on] + seq + [off]
        out.extend(seq)
    return _derived(Circuit, n_qubits=n, gates=tuple(out), ancillas=circuit.ancillas)


def gms_dagger_rewrite(n: int, chi: float) -> Circuit:
    """Inverse of a uniform full-register GMS without negative couplings.

    One pulse at pi - chi plus RX((n-1)pi) on every wire and the explicit
    scalar (-i)^(n(n-1)/2); equals GMS(-chi) exactly, including phase.
    """
    check_register(n, 2)
    if not 0 <= chi <= PI:
        raise ArgumentError("chi must lie in [0, pi]")
    pairs = n * (n - 1) // 2
    gates = [gms(range(n), Uniform(PI - chi))]
    gates += [rx(q, (n - 1) * PI) for q in range(n)]
    gates.append(global_phase(-PI / 2 * pairs))
    return Circuit(n, tuple(gates))


def _stack_pass(circuit: Circuit, kinds: Container[str], match: Callable) -> Circuit:
    """One left-to-right pass keeping each wire's output slots as a stack.

    Only gates of the ``kinds`` are matched; any other gate just pushes its
    slot.  ``match(out, stacks, gate)`` returns None or (partner slot,
    replacement) for an arriving gate.  The gate is then dropped and the
    replacement, put in the partner's slot, is tried again as if just
    arrived: no later gate touches its wires, so this is the fixpoint of a
    rescan per match.  A replacement acts on wires of its partner, so the
    output, on the input's register, is built unchecked.
    """
    out: list[Gate | None] = list(circuit.gates)
    stacks: list[list[int]] = [[] for _ in range(circuit.n_qubits)]
    for slot, gate in enumerate(out):
        while (gate is not None and gate.kind in kinds
               and (found := match(out, stacks, gate)) is not None):
            out[slot] = None
            slot, gate = found
            for w in out[slot].qubits:  # the partner is at the top or just below
                stack = stacks[w]
                del stack[-1 if stack[-1] == slot else -2]
            out[slot] = gate
        if gate is not None:
            for w in gate.qubits:
                stacks[w].append(slot)
    return _derived(Circuit, n_qubits=circuit.n_qubits, gates=tuple(filter(None, out)),
                    ancillas=circuit.ancillas)


def _echo_collapse(gate: Gate, q: int) -> Gate | None:
    """Result of an identical XX/GMS pair straddling RZ(pi) on wire q: the
    q couplings cancel, the rest double (nothing is left of an XX pair).
    The table is one pass over the pulse's canonical one, so it stays
    canonical, and the collapse is built unchecked but for its doubled
    couplings' finiteness."""
    rest = tuple(sorted(set(gate.qubits) - {q}))
    if len(rest) < 2:
        return None
    if isinstance(gate.profile, Uniform):
        return _pulse(rest, Uniform(2 * gate.profile.theta))
    return _pulse(rest, _pair_table(tuple([(a, b, 2 * chi) for a, b, chi in gate.pair_angles()
                                           if a != q != b])))


def _echo_match(memo: dict, out: list, stacks: list[list[int]], gate: Gate):
    """An XX/GMS echoes the same pulse sitting just below an RZ(pi) on one
    of its wires q when that pulse is also the last gate on its other wires.

    The partner slot is the top of the first wire, or of the second when
    the first wire's top is an RZ (then the first wire is the only
    candidate echo wire).  The cheapest rejection comes first: the partner
    must be the same pulse (by identity, else by wires and then value).
    Then one loop over the wires finds the single wire whose top is not
    the partner.  ``memo`` maps (id(gate), q) to (gate, collapse): the key
    is the object, not its value, so pulses that are equal but differ in a
    zero's sign keep their own collapse, and holding the gate keeps its id
    unique."""
    qubits = gate.qubits
    stack = stacks[qubits[0]]
    if not stack:
        return None
    left = stack[-1]
    prev = out[left]
    if prev.kind == "RZ":
        stack = stacks[qubits[1]]
        if not stack:
            return None
        left = stack[-1]
        prev = out[left]
    if prev is not gate and (prev.qubits != qubits or prev != gate):
        return None
    # the partner has the same wires, so its slot is on every one of them
    q = echo = None
    for w in qubits:
        stack = stacks[w]
        if stack[-1] != left:
            if echo is not None:
                return None
            q, echo = w, stack
    if echo is None or echo[-2] != left:
        return None
    rz_pi = out[echo[-1]]
    if rz_pi.kind != "RZ" or abs(rz_pi.theta) != PI:
        return None
    key = (id(gate), q)
    if key not in memo:
        memo[key] = gate, _echo_collapse(gate, q)
    return left, memo[key][1]


def spin_echo_cancel(circuit: Circuit) -> Circuit:
    """Peephole deletion of identical XX/GMS pairs straddling an RZ(pi).

    The echo wire's couplings vanish; pulses larger than the echoed pair
    collapse, in the left pulse's slot, to a doubled-angle pulse on the
    remaining wires.  One pass to the fixpoint; unitary preserved exactly.
    Collapses are memoised for the pass, once per pulse object and echo
    wire, so the shared pulses of a shrunk circuit collapse to shared
    pulses and the next level's match compares by identity.
    """
    return _stack_pass(circuit, ("XX", "GMS"), partial(_echo_match, {}))


def _inverse_match(out: list, stacks: list[list[int]], gate: Gate):
    """A GMS cancels the last gate on all its wires if that is one GMS on the
    same qubits with every coupling negated."""
    if not stacks[gate.qubits[0]]:
        return None
    left = stacks[gate.qubits[0]][-1]
    prev = out[left]
    if (prev.kind == "GMS" and prev.qubits == gate.qubits
            and all(stacks[w][-1] == left for w in gate.qubits)
            and all(abs(ca + cb) == 0.0 for (_, _, ca), (_, _, cb)
                    in zip(prev.pair_angles(), gate.pair_angles()))):
        return left, None
    return None


def cancel_inverse_gms(circuit: Circuit) -> Circuit:
    """Drop GMS pairs that are exact inverses separated only by gates on
    disjoint wires, in one pass to the fixpoint."""
    return _stack_pass(circuit, ("GMS",), _inverse_match)


def _rz_match(out: list, stacks: list[list[int]], gate: Gate):
    """An RZ merges into an RZ that is the last gate on its wire; the sum
    is dropped only when the angles cancel exactly, and is built unchecked
    but for its finiteness."""
    if not stacks[q := gate.qubits[0]]:
        return None
    left = stacks[q][-1]
    if out[left].kind != "RZ":
        return None
    theta = out[left].theta + gate.theta
    if theta == 0.0:
        return left, None
    if not math.isfinite(theta):
        raise ValueError("angle must be finite")
    return left, _derived(Gate, kind="RZ", qubits=gate.qubits, theta=theta, profile=None)


def merge_rz(circuit: Circuit) -> Circuit:
    """Merge adjacent RZ gates on each wire, RZ(a) RZ(b) = RZ(a + b), in
    one pass; this removes the RZ(pi) RZ(-pi) residue of cancelled echoes.
    Unitary preserved exactly, phase included."""
    return _stack_pass(circuit, ("RZ",), _rz_match)
