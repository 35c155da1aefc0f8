import math
import random
from collections import Counter
from functools import partial
from itertools import combinations, zip_longest

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (basis_state, compose, controlled_z_matrix,
                      random_circuit, random_echo_circuit, toffoli_matrix)
from gmsforge import constructions as cons
from gmsforge import sim
from gmsforge.circuit import (ArgumentError, Circuit, Exponential, Gate, PerPair,
                              PowerLawSum, Uniform, _canonical, cnot, gms, h, rx, ry,
                              rz, serialize, xx)
from gmsforge.cli import table1_rows
from gmsforge.fourier import qft_gms

PI = math.pi


def assert_same_serialization(got, want, label="circuits"):
    """Assert that two circuits serialize to the same bytes, reporting only
    the first line that differs: pytest's diff of two long texts took
    minutes."""
    got_text, want_text = serialize(got), serialize(want)
    if got_text != want_text:
        lines = zip_longest(got_text.split("\n"), want_text.split("\n"), fillvalue="<end>")
        k, (a, b) = next((k, ab) for k, ab in enumerate(lines, 1) if ab[0] != ab[1])
        pytest.fail(f"{label}: serializations differ at line {k}: {a!r} != {b!r}")


def assert_spec_ok(spec, tol=1e-9):
    r = sim.equiv_on_ancilla(spec.generated, spec.act.matrix(), tol)
    assert r.ok, f"{r.failure} dev={r.max_deviation}"
    return r


# -- references themselves ----------------------------------------------------

def test_controlled_z_reference_exact():
    for m in (1, 2, 3, 4):
        u = sim.unitary_of(cons.controlled_z_reference(m))
        assert np.max(np.abs(u - controlled_z_matrix(m))) < 1e-12


def test_toffoli_reference_exact():
    for n in (2, 3, 4):
        u = sim.unitary_of(cons.toffoli_reference(n))
        assert np.max(np.abs(u - toffoli_matrix(n))) < 1e-12


# -- star coupling -------------------------------------------------------------

def test_star_exact_hub_product():
    u = sim.unitary_of(cons.star_coupling(4, 3, PI / 2))
    ref = sim.unitary_of(Circuit(4, tuple(xx(3, j, PI / 2) for j in range(3))))
    assert np.max(np.abs(u - ref)) < 1e-12


def test_star_three_qubits():
    u = sim.unitary_of(cons.star_coupling(3, 0, 0.7))
    ref = sim.unitary_of(Circuit(3, (xx(0, 1, 0.7), xx(0, 2, 0.7))))
    assert np.max(np.abs(u - ref)) < 1e-12


def test_star_zero_angle_identity():
    u = sim.unitary_of(cons.star_coupling(4, 1, 0.0))
    assert np.max(np.abs(u - np.eye(16))) < 1e-12


def test_star_rejects_small():
    with pytest.raises(ValueError):
        cons.star_coupling(2, 0, 1.0)


# -- fans ----------------------------------------------------------------------

def test_fanout_gate_sequence_n4():
    gates = cons.fanout(4, 0).generated.gates
    want = (ry(0, PI / 2),
            gms((0, 1, 2, 3), Uniform(PI / 2)),
            gms((1, 2, 3), Uniform(-PI / 2)),
            rx(0, -3 * PI / 2), rx(1, -PI / 2), rx(2, -PI / 2), rx(3, -PI / 2),
            ry(0, -PI / 2))
    assert gates == want


def test_fanout_sizes():
    for n in (2, 3, 4, 5, 6):
        assert_spec_ok(cons.fanout(n, 0))


def test_fanout_off_center_control():
    assert_spec_ok(cons.fanout(5, 2))


def test_fanout2_single_pulse():
    assert cons.fanout(2).generated.cost().entangling == 1


def test_fanin_sizes():
    for n in (2, 3, 4, 5):
        assert_spec_ok(cons.fanin(n, 0))
    assert_spec_ok(cons.fanin(4, 2))


def test_fanin_cost_two_pulses():
    assert cons.fanin(5).generated.cost().gms_pulses == 2


def test_parity_prefix_single_pulse():
    assert cons.parity_measure_prefix(4).cost().gms_pulses == 1


def test_parity_prefix_z_expectation():
    # measured wire's Z statistics equal the full fan-in's on basis inputs
    for n, target in ((3, 0), (4, 0), (4, 2)):
        prefix = cons.parity_measure_prefix(n, target)
        zmask = 1 << (n - 1 - target)
        for x in range(1 << n):
            out = sim.apply(prefix, basis_state(n, x))
            signs = np.where(np.arange(1 << n) & zmask, -1.0, 1.0)
            z = float(np.sum(signs * np.abs(out) ** 2))
            parity = bin(x).count("1") & 1
            assert abs(z - (-1.0) ** parity) < 1e-9, (n, target, x)


def test_parity_prefix_parities():
    prefix = cons.parity_measure_prefix(3, 0)
    zmask = 1 << 2
    for x, parity in ((0b110, 0), (0b100, 1)):
        out = sim.apply(prefix, basis_state(3, x))
        signs = np.where(np.arange(8) & zmask, -1.0, 1.0)
        z = float(np.sum(signs * np.abs(out) ** 2))
        assert abs(z - (-1.0) ** parity) < 1e-9


# -- CNOT constructions ----------------------------------------------------------

def test_cnot_via_xx():
    r = assert_spec_ok(cons.cnot_via_xx())
    assert abs(r.phase - np.exp(1j * PI / 4)) < 1e-9


def test_cnot_via_xx_squares_to_identity():
    c = cons.cnot_via_xx().generated
    u = sim.unitary_of(compose(c, c))
    assert sim.equiv_phase(u, np.eye(4), 1e-9).ok


def test_cnot_via_xx_cost():
    assert cons.cnot_via_xx().generated.cost().entangling == 1


def test_cnot_via_4gms():
    for n in (3, 4):
        assert_spec_ok(cons.cnot_via_4gms(n, 0, n - 1))
    assert cons.cnot_via_4gms(4, 0, 1).generated.cost().gms_pulses == 4


@pytest.mark.parametrize("n, sizes", [(4, {2: 1, 3: 2, 4: 1}),
                                      (6, {4: 1, 5: 2, 6: 1})])
def test_cnot_via_4gms_pulse_sizes(n, sizes):
    # only the first pulse spans the register: n, n - 1, n - 1, n - 2 wires
    assert cons.cnot_via_4gms(n).generated.cost().gms_by_size == sizes


# -- Reed-Muller encoder -----------------------------------------------------------

def test_tdistill_costs():
    spec = cons.tdistill()
    assert spec.generated.cost().gms_pulses == 10
    assert spec.generated.cost().qubits == 15
    # its action is the 34 CNOTs of the fan columns (tests/test_actions.py)
    assert sum(len(ts) for _, ts in cons.TDISTILL_FANS) == 34


def test_tdistill_fans_dense_on_support():
    # each fan checked densely on its own wires
    for control, targets in cons.TDISTILL_FANS:
        support = sorted([control] + list(targets))
        pos = {q: i for i, q in enumerate(support)}
        k = len(support)
        gen = Circuit(k, tuple(cons.embed(
            cons._fan_gates(control, list(targets)),
            _inverse_map(pos))))
        ref = Circuit(k, tuple(cnot(pos[control], pos[t]) for t in sorted(targets)))
        r = sim.equiv_phase(sim.unitary_of(gen), sim.unitary_of(ref), 1e-9)
        assert r.ok


def _inverse_map(pos):
    # embed() maps small-index -> wire; here we relabel wide wires down
    wires = [0] * (max(pos) + 1)
    for wide, small in pos.items():
        wires[wide] = small
    return wires


# -- phase polynomial -----------------------------------------------------------

def diagonal_pair_phase(n, theta):
    phases = []
    for x in range(1 << n):
        bits = [(x >> (n - 1 - q)) & 1 for q in range(n)]
        pairs = sum(bits[i] ^ bits[j] for i in range(n) for j in range(i + 1, n))
        phases.append(np.exp(1j * theta * pairs))
    return np.diag(phases)


def test_phase_polynomial_two_qubits():
    u = sim.unitary_of(cons.phase_polynomial_identity(2, 0.37))
    assert sim.equiv_phase(u, diagonal_pair_phase(2, 0.37), 1e-9).ok


def test_phase_polynomial_three_qubits_101():
    theta = PI / 4
    circ = cons.phase_polynomial_identity(3, theta)
    out = sim.apply(circ, basis_state(3, 0b101))
    ref0 = sim.apply(circ, basis_state(3, 0b000))
    # |101> has two mixed pairs, |000> none: relative phase e^{i*theta*2}
    rel = (out[0b101] / abs(out[0b101])) / (ref0[0] / abs(ref0[0]))
    assert abs(rel - np.exp(1j * 2 * theta)) < 1e-9


def test_phase_polynomial_zero_identity():
    u = sim.unitary_of(cons.phase_polynomial_identity(3, 0.0))
    assert sim.equiv_phase(u, np.eye(8), 1e-12).ok


# -- multi-controlled constructions ------------------------------------------------

def test_ccz_3gms():
    spec = cons.ccz_3gms()
    assert_spec_ok(spec)
    assert spec.generated.cost().gms_pulses == 3


def test_ccz_erratum_z_axis_leaks():
    # with the ancilla rotation about Z instead of Y the ancilla leaks;
    # documents why the construction uses RY there (odd data count parks
    # the ancilla in a Y eigenbasis)
    good = cons.ccz_3gms().generated
    bad_gates = tuple(rz(3, PI / 4) if g == ry(3, PI / 4) else g
                      for g in good.gates)
    assert bad_gates != good.gates
    bad = Circuit(4, bad_gates, frozenset({3}))
    r = sim.equiv_on_ancilla(bad, controlled_z_matrix(3), 1e-9)
    assert not r.ok and r.failure == "leakage" and r.leakage > 0.3


def test_cccz_4gms():
    spec = cons.cccz_4gms()
    assert_spec_ok(spec)
    assert spec.generated.cost().gms_pulses == 4


def test_cccz_3gms():
    spec = cons.cccz_3gms()
    assert_spec_ok(spec)
    report = spec.generated.cost()
    assert report.gms_pulses == 3 and report.qubits == 5 and report.ancillas == 1


def test_toffoli3_gms():
    spec = cons.toffoli3_gms()
    assert_spec_ok(spec)
    assert spec.generated.cost().gms_pulses == 3


def test_toffoli4_7gms():
    spec = cons.toffoli4_7gms()
    assert_spec_ok(spec)
    report = spec.generated.cost()
    assert report.gms_pulses == 7 and report.qubits == 4 and report.ancillas == 0


def test_toffoli_n_counts():
    for n, gms_count in ((4, 3), (5, 9), (6, 9), (7, 15), (8, 15), (9, 21), (10, 21)):
        report = cons.toffoli_n(n).generated.cost()
        assert report.gms_pulses == gms_count, n
        bound = math.ceil((3 * n - 2) / 2) - n
        assert report.ancillas <= bound


def test_toffoli_n_structure_n6():
    # three Toffoli-4 units of three pulses each
    spec = cons.toffoli_n(6)
    assert spec.generated.cost().gms_pulses == 9
    assert spec.generated.cost().qubits == 8


def test_toffoli_n_qubits_n8():
    assert cons.toffoli_n(8).generated.cost().qubits <= 11


def test_toffoli_n_equivalence():
    for n in (4, 5, 6):
        assert_spec_ok(cons.toffoli_n(n))


def test_toffoli_n_rejects_small():
    with pytest.raises(ValueError):
        cons.toffoli_n(3)


# -- rewrites -----------------------------------------------------------------------

def test_shrink_single_exclusion_shape():
    theta = 0.9
    circ = Circuit(5, (gms((0, 1, 2, 3), Uniform(theta)),))
    out = cons.gms_shrink(circ)
    assert out.gates == (gms(range(5), Uniform(theta / 2)), rz(4, PI),
                         gms(range(5), Uniform(theta / 2)), rz(4, -PI))


def test_shrink_two_exclusions_pulse_count():
    circ = Circuit(5, (gms((0, 1, 2), Uniform(0.8)),))
    out = cons.gms_shrink(circ)
    assert out.cost().gms_pulses == 4
    assert all(len(g.qubits) == 5 for g in out.gates if g.kind == "GMS")
    assert np.max(np.abs(sim.unitary_of(out) - sim.unitary_of(circ))) < 1e-12


def test_two_qubit_echo_identity():
    circ = Circuit(2, (xx(0, 1, 0.7), rz(1, PI), xx(0, 1, 0.7)))
    want = sim.unitary_of(Circuit(2, (rz(1, PI),)))
    assert np.max(np.abs(sim.unitary_of(circ) - want)) < 1e-12


def test_shrink_fanout_still_equivalent():
    spec = cons.fanout(4)
    shrunk = cons.gms_shrink(spec.generated)
    r = sim.equiv_phase(sim.unitary_of(shrunk), spec.act.matrix(), 1e-9)
    assert r.ok
    assert all(len(g.qubits) == 4 for g in shrunk.gates if g.kind == "GMS")


def test_shrink_random_circuits_preserve_unitary():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.choice([3, 4, 5, 6])
        circ = random_circuit(rng, n, 10)
        out = cons.gms_shrink(circ)
        r = sim.equiv_phase(sim.unitary_of(out), sim.unitary_of(circ), 1e-9)
        assert r.ok


def test_dagger_rewrite_exact():
    cases = [(2, PI / 2), (3, 0.3), (4, PI / 4), (5, 2.2)]
    for n, chi in cases:
        rewritten = cons.gms_dagger_rewrite(n, chi)
        ref = Circuit(n, (gms(range(n), Uniform(-chi)),))
        dev = np.max(np.abs(sim.unitary_of(rewritten) - sim.unitary_of(ref)))
        assert dev < 1e-12, (n, chi)


def test_dagger_rewrite_endpoint():
    rewritten = cons.gms_dagger_rewrite(3, PI)
    ref = Circuit(3, (gms(range(3), Uniform(-PI)),))
    assert np.max(np.abs(sim.unitary_of(rewritten) - sim.unitary_of(ref))) < 1e-12


def test_dagger_rewrite_range_check():
    with pytest.raises(ValueError):
        cons.gms_dagger_rewrite(3, -0.1)
    with pytest.raises(ValueError):
        cons.gms_dagger_rewrite(3, PI + 0.1)


def test_spin_echo_cancel_xx_pair():
    circ = Circuit(2, (xx(0, 1, 0.7), rz(1, PI), xx(0, 1, 0.7)))
    out = cons.spin_echo_cancel(circ)
    assert out.gates == (rz(1, PI),)


def test_spin_echo_cancel_leaves_plain_circuits():
    rng = random.Random(5)
    circ = random_circuit(rng, 3, 8)
    no_echo = Circuit(3, tuple(g for g in circ.gates
                               if not (g.kind == "RZ" and abs(g.theta) == PI)))
    assert cons.spin_echo_cancel(no_echo).gates == no_echo.gates


def test_spin_echo_cancel_nested_display():
    t1, t2 = 0.9, 0.3
    circ = Circuit(3, (xx(0, 2, t2), xx(1, 2, t2), xx(1, 2, t1),
                       rz(2, PI), xx(1, 2, t1), xx(1, 2, t2), xx(0, 2, t2)))
    out = cons.spin_echo_cancel(circ)
    assert out.gates == (rz(2, PI),)


def test_spin_echo_cancel_random_preserves():
    rng = random.Random(99)
    fired = 0
    for _ in range(60):
        n = rng.choice([2, 3, 4, 5, 6])
        circ = random_echo_circuit(rng, n, 6)
        out = cons.spin_echo_cancel(circ)
        fired += len(out.gates) < len(circ.gates)
        r = sim.equiv_phase(sim.unitary_of(out), sim.unitary_of(circ), 1e-9)
        assert r.ok
    assert fired > 30  # the rewrite actually does something


# -- single-pass rewrites against the restart-scan oracles ---------------------
#
# The rewrites used to rescan the whole circuit after every match; those
# scans are kept here as oracles for the single passes.

def _oracle_echo_partner(gates, i, q, step):
    j = i + step
    while 0 <= j < len(gates):
        cand = gates[j]
        if q in cand.qubits:
            if cand.kind not in ("XX", "GMS"):
                return None
            lo, hi = (j + 1, i) if step < 0 else (i + 1, j)
            support = set(cand.qubits)
            if all(support.isdisjoint(gates[k].qubits) for k in range(lo, hi)):
                return j
            return None
        j += step
    return None


def _oracle_echo_collapse(gate, q):
    rest = sorted(set(gate.qubits) - {q})
    if len(rest) < 2:
        return []
    if gate.kind == "GMS" and isinstance(gate.profile, Uniform):
        return [gms(rest, Uniform(2 * gate.profile.theta))]
    angle = {(min(a, b), max(a, b)): chi for a, b, chi in gate.pair_angles()}
    table = tuple((a, b, 2 * angle[(a, b)]) for a, b in combinations(rest, 2))
    return [gms(rest, PerPair(table))]


def oracle_spin_echo_cancel(circuit):
    gates = list(circuit.gates)
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(gates):
            if g.kind != "RZ" or abs(g.theta) != PI:
                continue
            q = g.qubits[0]
            left = _oracle_echo_partner(gates, i, q, -1)
            right = _oracle_echo_partner(gates, i, q, +1)
            if left is None or right is None or gates[left] != gates[right]:
                continue
            collapsed = _oracle_echo_collapse(gates[left], q)
            gates = (gates[:left] + collapsed + gates[left + 1:right]
                     + gates[right + 1:])
            changed = True
            break
    return Circuit(circuit.n_qubits, tuple(gates), circuit.ancillas)


def oracle_cancel_inverse_gms(circuit):
    gates = list(circuit.gates)
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(gates):
            if g.kind != "GMS":
                continue
            support = set(g.qubits)
            for j in range(i + 1, len(gates)):
                other = gates[j]
                if support.isdisjoint(other.qubits):
                    continue
                if (other.kind == "GMS" and other.qubits == g.qubits
                        and all(abs(ca + cb) == 0.0 for (_, _, ca), (_, _, cb)
                                in zip(g.pair_angles(), other.pair_angles()))):
                    gates = gates[:i] + gates[i + 1:j] + gates[j + 1:]
                    changed = True
                break
            if changed:
                break
    return Circuit(circuit.n_qubits, tuple(gates), circuit.ancillas)


def test_spin_echo_cancel_matches_restart_oracle():
    fired = 0
    for seed in range(400):
        rng = random.Random(seed)
        circ = random_echo_circuit(rng, rng.randint(2, 6), rng.randint(1, 12))
        out = cons.spin_echo_cancel(circ)
        assert out.gates == oracle_spin_echo_cancel(circ).gates, seed
        fired += len(out.gates) < len(circ.gates)
    assert fired > 200


def test_cancel_inverse_gms_matches_restart_oracle():
    fired = 0
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        # pulses and blocking rotations followed by their inverse, then
        # random gates: matches nest, cross spectators and are blocked
        half = Circuit(n, tuple(g for g in random_circuit(rng, n, 10).gates
                                if g.kind in ("GMS", "RZ")))
        circ = compose(half, half.inverse()).extend(random_circuit(rng, n, 4).gates)
        out = cons.cancel_inverse_gms(circ)
        assert out.gates == oracle_cancel_inverse_gms(circ).gates, seed
        fired += len(out.gates) < len(circ.gates)
    assert fired > 150


@pytest.mark.parametrize("terms,offset", [(((0.4, 2.5),), 0),
                                          (((0.4, 2.5), (-0.5, 3.4)), 0),
                                          (((0.3, 2.0),), 1)])
def test_qft_power_law_round_trip_matches_restart_oracle(terms, offset):
    original = qft_gms(8, PowerLawSum(terms, offset))
    shrunk = cons.gms_shrink(original)
    echoed = cons.spin_echo_cancel(shrunk)
    assert echoed.gates == oracle_spin_echo_cancel(shrunk).gates
    back = cons.cancel_inverse_gms(echoed)
    assert back.gates == oracle_cancel_inverse_gms(echoed).gates
    assert back.cost().gms_pulses == original.cost().gms_pulses


def test_toffoli9_shrink_round_trip():
    original = cons.toffoli_n(9).generated
    shrunk = cons.gms_shrink(original)
    assert shrunk.cost().gms_pulses == 9984
    back = cons.cancel_inverse_gms(cons.spin_echo_cancel(shrunk))
    assert back.cost().gms_pulses == 21


def half_extend(gate, extra):
    """Grow a GMS by one spectator wire at half angles: uniform profiles
    extend uniformly, position-based ones by their own distance law,
    explicit tables with zero spectator coupling."""
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


def oracle_gms_shrink(circuit):
    """The per-item shrink: every pulse of a level is grown on its own, one
    spectator wire at a time."""
    n = circuit.n_qubits
    out = []
    for g in circuit.gates:
        if g.kind != "GMS" or len(g.qubits) == n:
            out.append(g)
            continue
        seq = [g]
        for extra in (q for q in range(n) if q not in g.qubits):
            grown_seq = []
            for item in seq:
                if item.kind == "GMS" and extra not in item.qubits:
                    grown = half_extend(item, extra)
                    grown_seq += [grown, rz(extra, PI), grown, rz(extra, -PI)]
                else:
                    grown_seq.append(item)
            seq = grown_seq
        out.extend(seq)
    return Circuit(n, tuple(out), circuit.ancillas)


def _random_profile(rng, qubits, kind):
    if kind == "uniform":
        return Uniform(rng.uniform(-PI, PI))
    if kind == "exponential":
        return Exponential()
    if kind == "power_law":
        terms = tuple((rng.choice([-1, 1]) * rng.uniform(0.2, 1.0), rng.uniform(1.0, 4.0))
                      for _ in range(rng.randint(1, 2)))
        return PowerLawSum(terms, rng.randint(0, 1))
    return PerPair(tuple((i, j, rng.choice([0.0, -0.0, rng.uniform(-PI, PI)]))
                         for i, j in combinations(qubits, 2)))


@pytest.mark.parametrize("kind", ["uniform", "per_pair", "exponential", "power_law"])
def test_gms_shrink_matches_per_item_oracle(kind):
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(3, 7)
        gates = []
        for g in random_circuit(rng, n, 6).gates:
            if g.kind == "GMS":
                qubits = sorted(rng.sample(range(n), rng.randint(2, n)))
                g = gms(qubits, _random_profile(rng, qubits, kind))
            gates.append(g)
        circ = Circuit(n, tuple(gates), frozenset({n - 1}))
        assert_same_serialization(cons.gms_shrink(circ), oracle_gms_shrink(circ), f"seed {seed}")


@pytest.mark.parametrize("original", [
    cons.toffoli_n(9).generated,
    qft_gms(8, PowerLawSum(((0.4, 2.5),), 0)),
    qft_gms(8, PowerLawSum(((0.4, 2.5), (-0.5, 3.4)), 0)),
    qft_gms(8, PowerLawSum(((0.3, 2.0),), 1))])
def test_gms_shrink_matches_per_item_oracle_on_constructions(original):
    assert_same_serialization(cons.gms_shrink(original), oracle_gms_shrink(original))


def test_shrink_grows_one_pulse_per_level(monkeypatch):
    grown = []  # (source, missing wires, result) of every _grow call, in order
    real = cons._grow

    def recording(gate, missing):
        grown.append((gate, list(missing), real(gate, missing)))
        return grown[-1][2]

    monkeypatch.setattr(cons, "_grow", recording)
    original = cons.toffoli_n(10).generated
    n = original.n_qubits
    pulses = iter(g for g in cons.gms_shrink(original).gates if g.kind == "GMS")
    calls = iter(grown)
    sources = [g for g in original.gates if g.kind == "GMS"]
    assert all(len(g.qubits) < n for g in sources)
    for source in sources:
        # one full-width pulse, grown from the source in one step, fills all
        # 2**k positions of the source's echo sequence
        src, missing, out = next(calls)
        assert src is source and missing == [q for q in range(n) if q not in src.qubits]
        assert all(next(pulses) is out for _ in range(2 ** len(missing)))
    assert next(calls, None) is None and next(pulses, None) is None
    assert len(grown) == len(sources) == 21


def count_post_inits(monkeypatch, cls):
    """Count the instances of a dataclass constructed from now on."""
    made = [0]
    real = cls.__post_init__

    def counting(self):
        made[0] += 1
        real(self)

    monkeypatch.setattr(cls, "__post_init__", counting)
    return made


def count_derived(monkeypatch):
    """Count the values ``constructions`` builds unchecked from its fields
    (``circuit._derived``) from now on, by class name."""
    made = Counter()
    real = cons._derived

    def counting(cls, **fields):
        made[cls.__name__] += 1
        return real(cls, **fields)

    monkeypatch.setattr(cons, "_derived", counting)
    return made


def test_construction_budget(monkeypatch):
    # once its templates exist, the Toffoli chain checks no gate: it maps
    # each unit once (180 checked gates when every unit was checked), and
    # the uncompute units are the compute units' gate objects; the shrink
    # grows each subset pulse in one step, one unchecked table each (13
    # checked tables before; 48 when every exclusion level built a table),
    # and checks one RZ(pi)/RZ(-pi) pair per wire
    cons.toffoli_n(12)
    checked = count_post_inits(monkeypatch, Gate)
    derived = count_derived(monkeypatch)
    out = cons.toffoli_n(12).generated
    assert checked[0] == 0
    unit = len(cons._unit_gates(4))
    blocks = [out.gates[k:k + unit] for k in range(0, len(out.gates), unit)]
    assert len(blocks) * unit == len(out.gates) and len(blocks) % 2 == 1
    for compute, uncompute in zip(blocks, blocks[::-1][:len(blocks) // 2]):
        assert all(a is b for a, b in zip(compute, uncompute))
    assert len(set(map(id, out.gates))) == derived["Gate"] == unit * (len(blocks) + 1) // 2
    assert derived["Circuit"] == 1 and out == Circuit(out.n_qubits, out.gates, out.ancillas)
    original = qft_gms(8, PowerLawSum(((0.4, 2.5),)))
    subset = [g for g in original.gates if g.kind == "GMS" and len(g.qubits) < 8]
    tables = count_post_inits(monkeypatch, PerPair)
    derived.clear()
    checked[0] = 0
    cons.gms_shrink(original)
    assert tables[0] == 0 and derived["PerPair"] == len(subset) == 13
    assert checked[0] == 2 * 8


def test_merge_rz_checks_no_gate(monkeypatch):
    # the RZ merge after a shrink, echo and inverse round trip builds each
    # summed RZ from its fields (594 checked gates when each was checked);
    # a sum past the largest float is still refused with Gate's message
    original = qft_gms(8, PowerLawSum(((0.4, 2.5),)))
    back = cons.cancel_inverse_gms(cons.spin_echo_cancel(cons.gms_shrink(original)))
    checked = count_post_inits(monkeypatch, Gate)
    derived = count_derived(monkeypatch)
    merged = cons.merge_rz(back)
    assert checked[0] == 0 and derived["Gate"] == 594
    assert_checked(merged)
    with pytest.raises(ValueError, match="angle must be finite"):
        cons.merge_rz(Circuit(1, (rz(0, 1e308), rz(0, 1e308))))


def assert_checked(circuit):
    """Every gate of ``circuit`` equals its checked construction, a pulse
    with its table re-checked (a list takes ``PerPair``'s sorting path) and
    canonical as stored, and the circuit equals its checked construction."""
    for g in circuit.gates:
        profile = g.profile
        if isinstance(profile, PerPair):
            assert _canonical(profile.table)
            profile = PerPair(list(profile.table))
        if g.kind == "GMS":
            assert gms(g.qubits, profile) == g  # sorted wires, as gms() makes them
        assert Gate(g.kind, g.qubits, g.theta, profile) == g
    assert Circuit(circuit.n_qubits, circuit.gates, circuit.ancillas) == circuit


LEDGER_PROFILES = st.one_of(
    st.builds(lambda b, p, offset: PowerLawSum(((b, p),), offset),
              st.sampled_from([-0.6, -0.5, -0.4, -0.3, 0.3, 0.4, 0.5, 0.6]),
              st.integers(20, 35).map(lambda k: round(k * 0.1, 1)),
              st.sampled_from([0, 1])),
    st.just(Exponential()))


@settings(max_examples=25, deadline=None)
@given(profile=LEDGER_PROFILES, n=st.integers(4, 12))
def test_derived_values_equal_checked_constructions(profile, n):
    # the values the rewrites and the Toffoli chain build unchecked are the
    # ones the checked constructors would make, on the ledger's draws; the
    # chain's pulses also shrink over scattered missing wires (above n = 8
    # a shrunk chain holds 30000 gates)
    outputs = [cons.toffoli_n(n).generated]
    for original in (qft_gms(8, profile), cons.toffoli_n(min(n, 8)).generated):
        shrunk = cons.gms_shrink(original)
        echoed = cons.spin_echo_cancel(shrunk)
        back = cons.cancel_inverse_gms(echoed)
        outputs += [shrunk, echoed, back, cons.merge_rz(back)]
    for circuit in outputs:
        assert_checked(circuit)


def test_derivations_keep_their_refusals():
    # a doubled coupling past the largest float, as a table or uniform
    for profile in (PerPair(((0, 1, 1e308), (0, 2, 1e308), (1, 2, 1e308))),
                    Uniform(1e308)):
        pulse = gms((0, 1, 2), profile)
        with pytest.raises(ArgumentError, match="coupling angles must be finite, not inf"):
            cons.spin_echo_cancel(Circuit(3, (pulse, rz(0, PI), pulse)))
    # a grown pulse's own coupling, pi / 5e-324, overflows
    tiny = Circuit(3, (gms((0, 1), PowerLawSum(((5e-324, 1.0),))),))
    with pytest.raises(ArgumentError, match="coupling angles must be finite, not inf"):
        cons.gms_shrink(tiny)
    # embed checks the wires its gates use once, with Gate's messages
    for gates, wires, message in (([rz(0, .1), rz(1, .2)], [3, 3], "distinct"),
                                  ([cnot(0, 1)], [2, 2], "distinct"),
                                  ([rz(0, .1)], [-1], "negative")):
        with pytest.raises(ValueError, match=message):
            cons.embed(gates, wires)
    # an entry no gate uses is not read
    assert cons.embed([rz(1, .2)], [0, 4, 0]) == [rz(4, .2)]


def test_rewrite_budget(monkeypatch):
    # a rewrite's matcher runs only on the gate kinds it can match: the echo
    # pass on XX/GMS arrivals and on the replacements it tries again, the
    # inverse pass on GMS arrivals; every collapse makes one table
    calls = {}  # matcher name -> [(gate, found)]

    def recording(name, real):
        def match(*args):
            found = real(*args)
            calls.setdefault(name, []).append((args[-1], found))
            return found
        return match

    monkeypatch.setattr(cons, "_echo_match", recording("echo", cons._echo_match))
    monkeypatch.setattr(cons, "_inverse_match", recording("inverse", cons._inverse_match))
    original = qft_gms(8, PowerLawSum(((0.4, 2.5),)))
    tables = count_post_inits(monkeypatch, PerPair)
    derived = count_derived(monkeypatch)
    shrunk = cons.gms_shrink(original)
    # no table of the round trip is checked (13 and 13 + 48 were): each is
    # canonical by construction and only its couplings are checked, finite
    assert tables[0] == 0 and derived["PerPair"] == 13
    echoed = cons.spin_echo_cancel(shrunk)
    assert tables[0] == 0 and derived["PerPair"] == 13 + 48
    back = cons.cancel_inverse_gms(echoed)
    assert back.cost().gms_pulses == original.cost().gms_pulses

    # a call that follows a match with a replacement is its retry; every
    # other call is an arrival
    echo, arrivals, retry = calls["echo"], [], None
    for gate, found in echo:
        if retry is None:
            arrivals.append(gate)
        else:
            assert gate is retry
        retry = found[1] if found else None
    assert retry is None
    assert arrivals == [g for g in shrunk.gates if g.kind in ("XX", "GMS")]
    assert len(echo) == 620
    inverse = calls["inverse"]
    assert [g for g, found in inverse] == [g for g in echoed.gates if g.kind == "GMS"]
    assert all(found is None or found[1] is None for _, found in inverse)


@pytest.mark.parametrize("seed", range(4))
def test_benchmark_round_trips_match_restart_oracles(seed):
    # the seeded one-term power laws of the ledger workload's round trip
    rng = random.Random(seed)
    b = rng.choice([-0.6, -0.5, -0.4, -0.3, 0.3, 0.4, 0.5, 0.6])
    p = round(rng.randint(20, 35) * 0.1, 1)
    original = qft_gms(8, PowerLawSum(((b, p),)))
    shrunk = cons.gms_shrink(original)
    echoed = cons.spin_echo_cancel(shrunk)
    assert echoed.gates == oracle_spin_echo_cancel(shrunk).gates
    back = cons.cancel_inverse_gms(echoed)
    assert back.gates == oracle_cancel_inverse_gms(echoed).gates
    assert back.cost().gms_pulses == original.cost().gms_pulses


def test_echo_collapses_once_per_pulse_and_wire(monkeypatch):
    calls = []
    real = cons._echo_collapse

    def counting(gate, q):
        calls.append((gate, q))
        return real(gate, q)

    monkeypatch.setattr(cons, "_echo_collapse", counting)
    original = qft_gms(8, PowerLawSum(((0.4, 2.5),)))
    shrunk = cons.gms_shrink(original)
    echoed = cons.spin_echo_cancel(shrunk)
    assert len({(id(g), q) for g, q in calls}) == len(calls)
    n = original.n_qubits
    assert len(calls) == sum(n - len(g.qubits) for g in original.gates if g.kind == "GMS")
    assert_same_serialization(echoed, oracle_spin_echo_cancel(shrunk))
    back = cons.cancel_inverse_gms(echoed)
    assert back.cost().gms_pulses == original.cost().gms_pulses


def test_echo_memo_keeps_signed_zeros():
    # equal pulses whose (0, 1) couplings are 0.0 and -0.0 serialize apart,
    # so a memo keyed by value would hand the second pair the first's collapse
    def pulse(zero):
        return gms((0, 1, 2), PerPair(((0, 1, zero), (0, 2, 0.3), (1, 2, 0.5))))

    assert pulse(0.0) == pulse(-0.0)
    circ = Circuit(3, (pulse(0.0), rz(2, PI), pulse(0.0),
                       pulse(-0.0), rz(2, -PI), pulse(-0.0)))
    out = cons.spin_echo_cancel(circ)
    assert_same_serialization(out, oracle_spin_echo_cancel(circ))
    assert [math.copysign(1.0, g.profile.table[0][2])
            for g in out.gates if g.kind == "GMS"] == [1.0, -1.0]


def oracle_echo_match(out, stacks, gate, memo):
    """The matcher that tries every wire of the arriving pulse as the echo
    wire; at most one can match."""
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
                memo[key] = gate, cons._echo_collapse(gate, q)
            return left, memo[key][1]
    return None


@pytest.mark.parametrize("original", [
    qft_gms(8, PowerLawSum(((0.4, 2.5),), 0)), cons.toffoli_n(7).generated],
    ids=["qft_gms(8)", "toffoli_n(7)"])
def test_echo_match_reads_one_candidate_wire(original):
    shrunk = cons.gms_shrink(original)
    out = cons.spin_echo_cancel(shrunk)
    want = cons._stack_pass(shrunk, ("XX", "GMS"), partial(oracle_echo_match, memo={}))
    assert_same_serialization(out, want)
    assert out.cost().gms_pulses < shrunk.cost().gms_pulses


def _round_trip(circuit):
    shrunk = cons.gms_shrink(circuit)
    return cons.cancel_inverse_gms(cons.merge_rz(cons.spin_echo_cancel(shrunk)))


def test_merge_rz_rules():
    assert cons.merge_rz(Circuit(2, (rz(0, PI), rz(1, 0.5), rz(0, -PI)))).gates \
        == (rz(1, 0.5),)
    assert cons.merge_rz(Circuit(1, (rz(0, 0.3), rz(0, 0.4), rz(0, 0.2)))).gates \
        == (rz(0, 0.3 + 0.4 + 0.2),)
    # blocked by any other gate on the wire; RZ(2 pi) = -I is kept
    blocked = Circuit(2, (rz(0, 0.3), h(0), rz(0, -0.3), xx(0, 1, 0.2), rz(1, 0.1)))
    assert cons.merge_rz(blocked).gates == blocked.gates
    assert cons.merge_rz(Circuit(1, (rz(0, PI), rz(0, PI)))).gates == (rz(0, 2 * PI),)
    # only an exact 0.0 is dropped: 0.1 + 0.2 - 0.3 leaves 5.6e-17
    for angles in ((0.3, -0.2999), (0.1, 0.2, -0.3)):
        out = cons.merge_rz(Circuit(1, tuple(rz(0, t) for t in angles))).gates
        assert len(out) == 1 and out[0].theta != 0.0


def test_merge_rz_random_preserves():
    rng = random.Random(314)
    fired = 0
    for _ in range(200):
        n = rng.choice([2, 3, 4, 5])
        gates = []
        for g in random_circuit(rng, n, 8).gates:
            gates.append(g)
            if rng.random() < 0.5:
                q = rng.randrange(n)
                theta = rng.choice([PI, -PI, rng.uniform(-PI, PI)])
                gates += [rz(q, theta), rz(q, rng.choice([-theta, 0.3]))]
        circ = Circuit(n, tuple(gates))
        out = cons.merge_rz(circ)
        fired += len(out.gates) < len(circ.gates)
        r = sim.equiv_phase(sim.unitary_of(out), sim.unitary_of(circ), 1e-9)
        assert r.ok
    assert fired > 150


@pytest.mark.parametrize("make,pulses,single", [
    (lambda: cons.toffoli_n(9).generated, 21, 121),
    (lambda: qft_gms(8, PowerLawSum(((0.4, 2.5),))), 14, 113)])
def test_round_trip_returns_the_circuit(make, pulses, single):
    original = make()
    back = _round_trip(original)
    assert back.cost().gms_pulses == original.cost().gms_pulses == pulses
    assert back.cost().single_qubit == original.cost().single_qubit == single


def test_round_trip_equivalent_toffoli5():
    original = cons.toffoli_n(5).generated
    back = _round_trip(original)
    assert back.cost().gms_pulses == 9
    r = sim.equiv_phase(sim.unitary_of(back), sim.unitary_of(original), 1e-9)
    assert r.ok


# -- no reference circuit is built by the ledger ---------------------------------

def test_table1_builds_no_reference(monkeypatch):
    def forbidden(*args):
        raise AssertionError("table1 built a reference")

    monkeypatch.setattr(cons, "controlled_z_reference", forbidden)
    monkeypatch.setattr(cons, "toffoli_reference", forbidden)
    rows = table1_rows()
    assert all(r["outcome"] in ("PASS", "EXCLUDED") for r in rows)


def test_reference_built_once():
    # a spec's reference is its action; the index array is built on first
    # use and kept, and so is the circuit, which the action never builds
    calls, circuits = [], []

    def build():
        calls.append(1)
        return cons._toffoli_map(3)

    def circuit():
        circuits.append(1)
        return cons.toffoli3_gms().generated

    spec = cons.ConstructionSpec(circuit, sim.IndexMap(3, build))
    assert calls == [] and circuits == []
    assert spec.act.dest is spec.act.dest
    spec.act.matrix()
    spec.act(np.eye(8))
    assert len(calls) == 1 and circuits == []
    assert_spec_ok(spec)
    assert spec.generated is spec.generated and len(circuits) == 1
    tof = cons.toffoli_n(5)
    assert tof.act.dest is tof.act.dest


def test_specs_compare_by_identity():
    # a spec holds a builder, not a circuit value: two builds of one
    # construction are two specs, and a spec equals itself
    a, b = cons.toffoli_n(5), cons.toffoli_n(5)
    assert a != b and a == a and len({a, b}) == 2


def test_cccz_3gms_derivable_from_4gms():
    # shrinking the data-only pulse and cancelling the inverse pair that
    # appears reproduces the three-pulse circuit exactly (up to phase)
    derived = cons.cancel_inverse_gms(cons.gms_shrink(cons.cccz_4gms().generated))
    assert derived.cost().gms_pulses == 3
    r = sim.equiv_phase(sim.unitary_of(derived),
                        sim.unitary_of(cons.cccz_3gms().generated), 1e-9)
    assert r.ok


def test_embed_remaps_profiles():
    from gmsforge.circuit import Exponential
    gates = [gms((0, 1, 2), Exponential())]
    out = cons.embed(gates, [4, 2, 0])
    assert out[0].qubits == (0, 2, 4)
    assert isinstance(out[0].profile, PerPair)
    # original distances preserved as explicit angles
    assert out[0].profile.angle(2, 4) == PI / 2   # was pair (0, 1)
    assert out[0].profile.angle(0, 4) == PI / 4   # was pair (0, 2)
