"""Generators and rewrites for circuits built from global MS pulses.

Each generator that implements a standard unitary is returned as a
ConstructionSpec pairing the pulse-based circuit with the action of that
unitary on its data register: a basis-index map (Toffoli, the CNOT fans
and the encoder) or a sign on the all-ones index (the controlled-Z gates).
An action builds its index array on first use, so making a spec costs no
2^d work.  The verification harness checks the circuit against the action
up to a global phase (on the data register when ancillas are involved).

The local-gate references are kept as circuits that no check simulates:
multi-controlled phases are synthesized exactly from the parity expansion
x1*...*xm = sum over nonempty subsets S of (-1)^(|S|+1)(xor S) / 2^(m-1),
realized as CNOT folds plus RZ, with the residual scalar tracked in an
explicit global-phase gate.  The spin-echo, inverse-pulse and RZ-merge
rewrites are single left-to-right passes over per-wire gate stacks.  The
shrink rewrite grows one pulse per exclusion level and shares that object
across all of the level's positions; the spin-echo pass memoises each
collapse per pulse object and echo wire, so the round trip builds each
distinct pulse once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

from .circuit import (ArgumentError, Circuit, Gate, PerPair, Uniform, cnot,
                      gms, global_phase, h, rx, ry, rz, xx)
from .sim import AllOnesSign, IndexMap

PI = math.pi


@dataclass(frozen=True)
class ConstructionSpec:
    """A generated circuit paired with the action of the unitary it must
    implement: ``act(cols)`` maps a (2^d, batch) array of data-register
    states to their images and ``act.matrix()`` is the dense unitary.  The
    action computes nothing of size 2^d until it is first used."""

    name: str
    parameters: dict
    generated: Circuit
    act: Callable = field(compare=False, repr=False)


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


def embed(gates: Iterable[Gate], wires: Sequence[int]) -> list[Gate]:
    """Remap gates of a small circuit onto the given wires of a wider one.

    Position-dependent profiles (exponential, power-law) are frozen into
    per-pair tables first, since wire distances change under the mapping.
    """
    out = []
    for g in gates:
        qs = tuple(wires[q] for q in g.qubits)
        if g.kind != "GMS":
            out.append(Gate(g.kind, qs, g.theta))
        elif isinstance(g.profile, Uniform):
            out.append(gms(qs, g.profile))
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
    if m < 1:
        raise ArgumentError("need at least one qubit")
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


def star_coupling(n: int, hub: int, chi: float) -> Circuit:
    """Two uniform pulses leaving only the hub's couplings active:
    full-register GMS(chi) then GMS(-chi) on the hub's complement."""
    if n < 3:
        raise ArgumentError("need n >= 3")
    if not 0 <= hub < n:
        raise ArgumentError("hub out of range")
    return Circuit(n, tuple(_star_gates(range(n), hub, chi)))


def _star_gates(qubits: Iterable[int], hub: int, chi: float) -> list[Gate]:
    qubits = sorted(qubits)
    rest = [q for q in qubits if q != hub]
    gates = [gms(qubits, Uniform(chi))]
    if len(rest) >= 2:
        gates.append(gms(rest, Uniform(-chi)))
    return gates


def fanout(n: int, control: int = 0) -> ConstructionSpec:
    if n < 2:
        raise ArgumentError("need n >= 2")
    if not 0 <= control < n:
        raise ArgumentError("control out of range")
    targets = [q for q in range(n) if q != control]
    generated = Circuit(n, tuple(_fan_gates(control, targets)))
    return ConstructionSpec("fanout", {"n": n, "control": control}, generated,
                            _cnots_action(n, [(control, t) for t in targets]))


def fanin(n: int, target: int = 0) -> ConstructionSpec:
    """Shared-target CNOT set: Hadamard conjugation of the fan-out."""
    if n < 2:
        raise ArgumentError("need n >= 2")
    controls = [q for q in range(n) if q != target]
    layer = [h(q) for q in range(n)]
    generated = Circuit(n, tuple(layer + _fan_gates(target, controls) + layer))
    return ConstructionSpec("fanin", {"n": n, "target": target}, generated,
                            _cnots_action(n, [(c, target) for c in controls]))


def parity_measure_prefix(n: int, target: int = 0) -> Circuit:
    """Fan-in truncated after its first pulse.

    Only the measured wire's dressing is kept; the dropped second pulse and
    target dressings act entirely on other wires, so the measured wire's
    Z statistics match the full fan-in on every basis input.
    """
    if n < 3:
        raise ArgumentError("need n >= 3")
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
    generated = Circuit(n, tuple(_cnot_xx_gates(control, target)))
    return ConstructionSpec("cnot_via_xx", {"control": control, "target": target},
                            generated, _cnots_action(n, [(control, target)]))


def cnot_via_4gms(n: int, control: int = 0, target: int = 1) -> ConstructionSpec:
    """CNOT from full-register pulses only: two star isolations leave a
    single XX(pi/2) between control and target, then standard dressing."""
    if n < 3:
        raise ArgumentError("need n >= 3")
    if control == target or not (0 <= control < n and 0 <= target < n):
        raise ArgumentError("bad control/target")
    keep = [q for q in range(n) if q != target]
    gates = [ry(control, PI / 2)]
    gates += _star_gates(range(n), control, PI / 2)
    gates += _star_gates(keep, control, -PI / 2)
    gates += [rx(control, -PI / 2), rx(target, -PI / 2), ry(control, -PI / 2)]
    generated = Circuit(n, tuple(gates))
    return ConstructionSpec("cnot_via_4gms", {"n": n, "control": control,
                                              "target": target},
                            generated, _cnots_action(n, [(control, target)]))


# ---------------------------------------------------------------------------
# [[15,1,3]] Reed-Muller encoder (T-state distillation circuit)
# ---------------------------------------------------------------------------

# Wire labels of the standard encoder drawing, top to bottom; the five fan
# columns are given as (control position, target positions).
TDISTILL_LABELS = (1, 2, 4, 8, 3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15)
TDISTILL_FANS = (
    (0, (6, 7, 9, 10, 11, 12, 14)),
    (1, (5, 7, 8, 10, 11, 13, 14)),
    (2, (4, 7, 8, 9, 12, 13, 14)),
    (3, (4, 5, 6, 10, 12, 13, 14)),
    (14, (4, 5, 6, 8, 9, 11)),
)


def tdistill() -> ConstructionSpec:
    """The 34-CNOT encoder as five fan columns of two pulses each."""
    gates: list[Gate] = []
    for control, targets in TDISTILL_FANS:
        gates += _fan_gates(control, targets)
    cnots = [(c, t) for c, ts in TDISTILL_FANS for t in ts]
    return ConstructionSpec("tdistill", {}, Circuit(15, tuple(gates)),
                            _cnots_action(15, cnots))


# ---------------------------------------------------------------------------
# Phase-polynomial constructions
# ---------------------------------------------------------------------------

def phase_polynomial_identity(n: int, theta: float) -> Circuit:
    """Hadamard-conjugated uniform pulse: applies phase exp(i*theta) to the
    parity of every qubit pair, up to one global phase."""
    if n < 2:
        raise ArgumentError("need n >= 2")
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
    a, b, c, anc = 0, 1, 2, 3
    gates = [rz(a, PI / 4), rz(b, PI / 4), h(c),
             ry(a, PI / 2), ry(b, PI / 2), rx(c, PI / 4),
             gms((a, b, c, anc), Uniform(PI / 2)),
             gms((a, b, c), Uniform(-PI / 4)), ry(anc, PI / 4),
             gms((a, b, c, anc), Uniform(-PI / 2)),
             ry(a, -PI / 2), ry(b, -PI / 2), h(c)]
    generated = Circuit(4, tuple(gates), frozenset({anc}))
    return ConstructionSpec("ccz_3gms", {}, generated, AllOnesSign(3))


def cccz_4gms() -> ConstructionSpec:
    """Triply-controlled Z on wires 0..3 from four pulses and one ancilla."""
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
    generated = Circuit(5, tuple(gates), frozenset({anc}))
    return ConstructionSpec("cccz_4gms", {}, generated, AllOnesSign(4))


def cccz_3gms() -> ConstructionSpec:
    """Triply-controlled Z from three full-register pulses: the four-pulse
    form after shrinking its subset pulse and cancelling the inverse pair."""
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
    generated = Circuit(5, tuple(gates), frozenset({anc}))
    return ConstructionSpec("cccz_3gms", {}, generated, AllOnesSign(4))


def toffoli3_gms() -> ConstructionSpec:
    """Toffoli on 3 wires (target 2) from three size-3 pulses, no ancilla."""
    gates = [ry(0, PI / 2), ry(1, PI / 2), ry(2, PI / 2), rz(2, PI / 4),
             gms((0, 1, 2), Uniform(PI / 2)),
             rx(0, -PI / 2), rx(1, -PI / 2), rx(2, -PI / 2), rz(2, -PI / 2),
             rx(0, -PI / 4), rx(1, -PI / 4), rx(2, -PI / 4),
             gms((0, 1, 2), Uniform(PI / 4)),
             rz(2, PI / 2),
             gms((0, 1, 2), Uniform(PI / 2)),
             rx(0, PI / 2), rx(1, PI / 2), rx(2, PI / 2),
             ry(0, -PI / 2), ry(1, -PI / 2), ry(2, -PI / 2)]
    return ConstructionSpec("toffoli3_gms", {}, Circuit(3, tuple(gates)),
                            _toffoli_action(3))


def toffoli4_7gms() -> ConstructionSpec:
    """Ancilla-free Toffoli-4 (target 3) from seven pulses."""
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
    return ConstructionSpec("toffoli4_7gms", {}, Circuit(4, tuple(gates)),
                            _toffoli_action(4))


def _toffoli4_unit(x: int, y: int, z: int, target: int, helper: int) -> list[Gate]:
    """Three-pulse Toffoli-4 as an embeddable unit (helper enters/leaves |0>)."""
    spec = cccz_3gms()
    inner = [h(3)] + list(spec.generated.gates) + [h(3)]
    return embed(inner, [x, y, z, target, helper])


def _toffoli3_unit(x: int, y: int, target: int) -> list[Gate]:
    return embed(list(toffoli3_gms().generated.gates), [x, y, target])


def toffoli_n(n: int) -> ConstructionSpec:
    """Multiply-controlled NOT from a chain of three-pulse Toffoli-4 units.

    Controls 0..n-2, target n-1; compute units AND pairs of controls into
    fresh tree ancillas, a final unit hits the target, then the computes
    run in reverse.  Odd n seeds the chain with one Toffoli-3 pair.  Pulse
    count: 3n-9 for even n, 3n-6 for odd n; every ancilla returns to |0>.
    """
    if n < 4:
        raise ArgumentError("need n >= 4")
    controls = list(range(n - 1))
    target = n - 1
    even = n % 2 == 0
    n_tree = (n - 4) // 2 if even else (n - 3) // 2
    total = n + n_tree + 1
    helper = total - 1  # shared inner ancilla of the Toffoli-4 units
    tree = list(range(n, n + n_tree))

    compute: list[tuple] = []
    if n == 4:
        final = ("t4", controls[0], controls[1], controls[2], target)
    else:
        nxt = iter(tree)
        if even:
            acc = next(nxt)
            compute.append(("t4", controls[0], controls[1], controls[2], acc))
            rest = controls[3:]
        else:
            acc = next(nxt)
            compute.append(("t3", controls[0], controls[1], acc))
            rest = controls[2:]
        while len(rest) > 2:
            out = next(nxt)
            compute.append(("t4", acc, rest[0], rest[1], out))
            acc = out
            rest = rest[2:]
        final = ("t4", acc, rest[0], rest[1], target)

    gates: list[Gate] = []
    for unit in compute + [final] + list(reversed(compute)):
        if unit[0] == "t4":
            gates += _toffoli4_unit(unit[1], unit[2], unit[3], unit[4], helper)
        else:
            gates += _toffoli3_unit(unit[1], unit[2], unit[3])
    generated = Circuit(total, tuple(gates), frozenset(range(n, total)))
    return ConstructionSpec("toffoli_n", {"n": n}, generated, _toffoli_action(n))


# ---------------------------------------------------------------------------
# Rewrites
# ---------------------------------------------------------------------------

def _half_extend(gate: Gate, extra: int) -> Gate:
    """Grow a GMS by one spectator wire at half angles.

    The spectator's couplings cancel between the echoed pulse pair whatever
    their value; uniform profiles extend uniformly, position-based ones by
    their own distance law, explicit tables with zero spectator coupling.
    """
    grown = sorted(set(gate.qubits) | {extra})
    prof = gate.profile
    if isinstance(prof, Uniform):
        return gms(grown, Uniform(prof.theta / 2))
    table = []
    for i, j in combinations(grown, 2):
        if extra in (i, j) and isinstance(prof, PerPair):
            table.append((i, j, 0.0))
        else:
            table.append((i, j, prof.angle(i, j) / 2))
    return gms(grown, PerPair(tuple(table)))


def gms_shrink(circuit: Circuit) -> Circuit:
    """Rewrite subset pulses to full-register pulses.

    A GMS missing k wires becomes 2**k full-register pulses at geometrically
    halved angles, each exclusion level wrapped in an RZ(pi)/RZ(-pi) echo on
    the reintroduced wire; the echo flips that wire's couplings so they
    cancel while the original ones double back to strength.

    Every pulse of one exclusion level is the same gate, so the pulse is
    grown once per excluded wire and the fully grown one, a single object,
    fills all 2**k positions: the sequence for excluded wires l..k is the
    one for wires l+1..k, RZ(pi) on wire l, that sequence again, RZ(-pi).
    """
    n = circuit.n_qubits
    out: list[Gate] = []
    for g in circuit.gates:
        if g.kind != "GMS" or len(g.qubits) == n:
            out.append(g)
            continue
        missing = [q for q in range(n) if q not in g.qubits]
        for extra in missing:
            g = _half_extend(g, extra)
        seq = [g]
        for extra in reversed(missing):
            seq = seq + [rz(extra, PI)] + seq + [rz(extra, -PI)]
        out.extend(seq)
    return Circuit(n, tuple(out), circuit.ancillas)


def gms_dagger_rewrite(n: int, chi: float) -> Circuit:
    """Inverse of a uniform full-register GMS without negative couplings.

    One pulse at pi - chi plus RX((n-1)pi) on every wire and the explicit
    scalar (-i)^(n(n-1)/2); equals GMS(-chi) exactly, including phase.
    """
    if n < 2:
        raise ArgumentError("need n >= 2")
    if not 0 <= chi <= PI:
        raise ArgumentError("chi must lie in [0, pi]")
    pairs = n * (n - 1) // 2
    gates = [gms(range(n), Uniform(PI - chi))]
    gates += [rx(q, (n - 1) * PI) for q in range(n)]
    gates.append(global_phase(-PI / 2 * pairs))
    return Circuit(n, tuple(gates))


def _stack_pass(circuit: Circuit, match: Callable) -> Circuit:
    """One left-to-right pass keeping each wire's output slots as a stack.

    ``match(out, stacks, gate)`` returns None or (partner slot, replacement)
    for an arriving gate.  The gate is then dropped and the replacement,
    put in the partner's slot, is tried again as if just arrived: no later
    gate touches its wires, so this is the fixpoint of a rescan per match.
    """
    out: list[Gate | None] = []
    stacks: list[list[int]] = [[] for _ in range(circuit.n_qubits)]
    for gate in circuit.gates:
        slot = len(out)
        out.append(gate)
        while gate is not None and (found := match(out, stacks, gate)) is not None:
            out[slot] = None
            slot, gate = found
            for w in out[slot].qubits:  # the partner is at the top or just below
                del stacks[w][-1 if stacks[w][-1] == slot else -2]
            out[slot] = gate
        if gate is not None:
            for w in gate.qubits:
                stacks[w].append(slot)
    return Circuit(circuit.n_qubits, tuple(g for g in out if g is not None),
                   circuit.ancillas)


def _echo_collapse(gate: Gate, q: int) -> Gate | None:
    """Result of an identical XX/GMS pair straddling RZ(pi) on wire q: the
    q couplings cancel, the rest double (nothing is left of an XX pair)."""
    rest = sorted(set(gate.qubits) - {q})
    if len(rest) < 2:
        return None
    if isinstance(gate.profile, Uniform):
        return gms(rest, Uniform(2 * gate.profile.theta))
    return gms(rest, PerPair(tuple((a, b, 2 * chi) for a, b, chi in gate.pair_angles()
                                   if q not in (a, b))))


def _echo_match(out: list, stacks: list[list[int]], gate: Gate, memo: dict):
    """An XX/GMS echoes the same pulse sitting just below an RZ(pi) on one
    of its wires q when that pulse is also the last gate on its other wires.

    ``memo`` maps (id(gate), q) to (gate, collapse): the key is the object,
    not its value, so pulses that are equal but differ in a zero's sign
    keep their own collapse, and holding the gate keeps its id unique."""
    if gate.kind not in ("XX", "GMS"):
        return None
    for q in gate.qubits:
        if len(stacks[q]) < 2:
            continue
        top, left = out[stacks[q][-1]], stacks[q][-2]
        if (top.kind == "RZ" and abs(top.theta) == PI
                and all(stacks[w] and stacks[w][-1] == left for w in gate.qubits if w != q)
                and out[left] == gate):
            key = (id(gate), q)
            if key not in memo:
                memo[key] = gate, _echo_collapse(gate, q)
            return left, memo[key][1]
    return None


def spin_echo_cancel(circuit: Circuit) -> Circuit:
    """Peephole deletion of identical XX/GMS pairs straddling an RZ(pi).

    The echo wire's couplings vanish; pulses larger than the echoed pair
    collapse, in the left pulse's slot, to a doubled-angle pulse on the
    remaining wires.  One pass to the fixpoint; unitary preserved exactly.
    Collapses are memoised for the pass, once per pulse object and echo
    wire, so the shared pulses of a shrunk circuit collapse to shared
    pulses and the next level's match compares by identity.
    """
    return _stack_pass(circuit, partial(_echo_match, memo={}))


def _inverse_match(out: list, stacks: list[list[int]], gate: Gate):
    """A GMS cancels the last gate on all its wires if that is one GMS on the
    same qubits with every coupling negated."""
    if gate.kind != "GMS" or not stacks[gate.qubits[0]]:
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
    return _stack_pass(circuit, _inverse_match)


def _rz_match(out: list, stacks: list[list[int]], gate: Gate):
    """An RZ merges into an RZ that is the last gate on its wire; the sum
    is dropped only when the angles cancel exactly."""
    if gate.kind != "RZ" or not stacks[q := gate.qubits[0]]:
        return None
    left = stacks[q][-1]
    if out[left].kind != "RZ":
        return None
    theta = out[left].theta + gate.theta
    return left, None if theta == 0.0 else rz(q, theta)


def merge_rz(circuit: Circuit) -> Circuit:
    """Merge adjacent RZ gates on each wire, RZ(a) RZ(b) = RZ(a + b), in
    one pass; this removes the RZ(pi) RZ(-pi) residue of cancelled echoes.
    Unitary preserved exactly, phase included."""
    return _stack_pass(circuit, _rz_match)
