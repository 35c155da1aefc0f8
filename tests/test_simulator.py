import bisect
import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest

from conftest import (HADAMARD, I2, PAULI_Z, basis_state, controlled_z_matrix,
                      kron_all, oracle_unitary, random_circuit, random_state,
                      toffoli_matrix, xx_matrix)
from gmsforge import constructions as cons
from gmsforge import sim
from gmsforge.circuit import (ArgumentError, Circuit, GuardError, Uniform, cnot, cp, empty,
                              gms, h, rx, ry, rz, xx)
from gmsforge.constructions import (TDISTILL_FANS, fanout, tdistill,
                                    toffoli3_gms, toffoli_n)
from gmsforge.fourier import direct_fidelity, qfa_gms, qft_gms
from gmsforge.circuit import Exponential, PowerLawSum
from gmsforge.gf2 import FanLayer, linear_simulate

PI = math.pi


def test_xx_matrix_form():
    u = sim.unitary_of(Circuit(2, (xx(0, 1, PI / 2),)))
    r = math.sqrt(2) / 2
    want = np.array([[r, 0, 0, -1j * r],
                     [0, r, -1j * r, 0],
                     [0, -1j * r, r, 0],
                     [-1j * r, 0, 0, r]])
    assert np.max(np.abs(u - want)) < 1e-12


def test_empty_circuit_identity():
    assert np.array_equal(sim.unitary_of(empty(3)), np.eye(8))


def test_gms3_equals_xx_product():
    u = sim.unitary_of(Circuit(3, (gms((0, 1, 2), Uniform(PI / 2)),)))
    x01 = np.kron(xx_matrix(PI / 2), I2)
    x12 = np.kron(I2, xx_matrix(PI / 2))
    # XX on the outer pair (0, 2) built by hand
    from conftest import PAULI_X
    c, s = math.cos(PI / 4), math.sin(PI / 4)
    x02 = c * np.eye(8) - 1j * s * kron_all([PAULI_X, I2, PAULI_X])
    want = x12 @ x02 @ x01  # order free, they commute
    assert np.max(np.abs(u - want)) < 1e-12


def test_apply_h_on_zero():
    out = sim.apply(Circuit(1, (h(0),)), basis_state(1, 0))
    assert np.allclose(out, np.array([1, 1]) / math.sqrt(2))


def test_fanout_copies_basis_state():
    circ = fanout(4).generated
    out = sim.apply(circ, basis_state(4, 0b1000))
    hit = int(np.argmax(np.abs(out)))
    assert hit == 0b1111 and abs(abs(out[hit]) - 1) < 1e-9


def test_tdistill_statevector_matches_gf2():
    rng = random.Random(23)
    circ = tdistill().generated
    layers = [FanLayer(c, frozenset(t)) for c, t in TDISTILL_FANS]
    m = linear_simulate(layers, 15)
    for _ in range(5):
        x = rng.randrange(1 << 15)
        out = sim.apply(circ, basis_state(15, x))
        hit = int(np.argmax(np.abs(out)))
        # wire k holds bit (14 - k) of the basis index
        x_bits = sum(((x >> (14 - k)) & 1) << k for k in range(15))
        y_bits = m.apply(x_bits)
        want = sum(((y_bits >> k) & 1) << (14 - k) for k in range(15))
        assert hit == want
        assert abs(abs(out[hit]) - 1) < 1e-9


def test_unitary_and_apply_agree():
    rng = random.Random(31)
    nrng = np.random.default_rng(31)
    for _ in range(200):
        n = rng.choice([2, 3, 4, 5, 6, 7, 8])
        circ = random_circuit(rng, n, 12)
        psi = random_state(nrng, n)
        via_matrix = sim.unitary_of(circ) @ psi
        via_apply = sim.apply(circ, psi)
        assert np.max(np.abs(via_matrix - via_apply)) < 1e-9
        assert abs(np.linalg.norm(via_apply) - 1) < 1e-10


def test_equiv_phase_pure_phase():
    u = sim.unitary_of(random_circuit(random.Random(1), 3, 10))
    r = sim.equiv_phase(u, np.exp(-1j * PI / 7) * u, 1e-10)
    assert r.ok and abs(r.phase - np.exp(1j * PI / 7)) < 1e-10


def test_equiv_phase_distinguishes():
    hxi = kron_all([HADAMARD, I2])
    ixh = kron_all([I2, HADAMARD])
    assert not sim.equiv_phase(hxi, ixh, 0.9).ok


def test_equiv_phase_toffoli3():
    u = sim.unitary_of(toffoli3_gms().generated)
    assert sim.equiv_phase(u, toffoli_matrix(3), 1e-9).ok


def test_equiv_phase_symmetric_transitive():
    rng = random.Random(4)
    u = sim.unitary_of(random_circuit(rng, 3, 8))
    v = np.exp(0.3j) * u
    w = np.exp(-1.1j) * v
    assert sim.equiv_phase(u, v).ok and sim.equiv_phase(v, u).ok
    assert sim.equiv_phase(v, w).ok and sim.equiv_phase(u, w).ok


def unblocked_equiv_phase(u, v, tol=1e-9):
    """The one-pass form the blocked check must reproduce bit for bit."""
    flat = np.argmax(np.abs(v))
    lam = u.reshape(-1)[flat] / v.reshape(-1)[flat]
    lam /= abs(lam)
    dev = float(np.max(np.abs(u - lam * v)))
    return sim.PhaseMatch(dev <= tol, lam, dev)


def test_equiv_phase_blocks_are_bit_identical():
    # many tied maxima (a permutation, a Hadamard layer) and ragged blocks:
    # the pivot is still the first maximum in row-major order
    rng = np.random.default_rng(11)
    perm = np.eye(512)[rng.permutation(512)] * np.exp(0.4j)
    had = sim.unitary_of(Circuit(9, tuple(h(q) for q in range(9))))
    noise = rng.normal(size=(512, 512)) * 1e-3
    ragged = rng.normal(size=(300, 70)) + 1j * rng.normal(size=(300, 70))
    for u, v in [(perm + noise, perm), (had * np.exp(-1j) + noise, had),
                 (ragged * np.exp(2j) + 1e-12, ragged)]:
        assert sim.equiv_phase(u, v, 1e-2) == unblocked_equiv_phase(u, v, 1e-2)


def row_block_pivot(v):
    """The pivot scan that held every row block of a matrix at once: the
    first block with the largest |entry|, then its first such entry."""
    step = max(1, sim.CHUNK // v.shape[1])
    blocks = [v[r:r + step] for r in range(0, len(v), step)]
    k = int(np.argmax([np.abs(blk).max() for blk in blocks]))
    i, c = divmod(int(np.argmax(np.abs(blocks[k]))), blocks[k].shape[1])
    return k * len(blocks[0]) + i, c, blocks[k][i, c]


def test_pivot_scans_each_row_block_once():
    # ties within a block and across blocks (entries drawn from a few
    # magnitudes), ragged last blocks, and an all-zero matrix: the same
    # (row, column, lam) as the scan that held every block, bit for bit
    rng = np.random.default_rng(17)
    values = np.array([0, 1, -1, 1j, 0.5, -0.5j, 2 ** -0.5 * (1 + 1j)])
    mats = [np.zeros((64, 64), complex), np.zeros((300, 70), complex)]
    for shape in ((64, 64), (300, 70), (1024, 1024), (5, 4096), (2, 40000), (9, 1)):
        mats.append(rng.choice(values, size=shape))
        mats.append(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    for v in mats:
        seen = []

        def at(r, c):
            seen.append((r, c))
            return 0.3 - 0.4j

        ok, lam = sim._pivot(v, at, 1e-9)
        r, c, b = row_block_pivot(v)
        assert seen == [(r, c)]
        want = (0.3 - 0.4j) / b / abs((0.3 - 0.4j) / b) if b else 1.0 + 0j
        assert (ok, repr(lam)) == (bool(b), repr(want))


def test_action_pivots():
    # an IndexMap's pivot is its largest |phase| on the lowest destination
    # row, as the lexsort of (-|phase|, dest) that found it before; the
    # transform's is V[0, 0], 2^(-d/2) up to rounding, as large as any entry
    rng = np.random.default_rng(23)
    for d in (1, 3, 6):
        for values in ([1.0], [1.0, -1.0, 1j], [0.5, 1.0, 2 ** -0.5 * (1 + 1j)]):
            dest, phase = rng.permutation(1 << d), rng.choice(values, 1 << d)
            act = sim.IndexMap(d, lambda: dest, lambda: phase)
            c = int(np.lexsort((dest, -np.abs(phase)))[0])
            assert act.pivot == (dest[c], c, phase[c])
        ifft = sim.BitReversedIFFT(d)
        r, c, b = ifft.pivot
        assert (r, c, b) == (0, 0, ifft[:1][0, 0]) and b.imag == 0
        assert abs(b * 2 ** (d / 2) - 1) <= 1e-15
        assert np.abs(ifft.matrix()).max() / b - 1 <= 1e-15


def test_equiv_phase_temporaries_are_one_block():
    u = sim.unitary_of(random_circuit(random.Random(6), 9, 12))
    v = np.exp(0.7j) * u
    tracemalloc.start()
    try:
        r = sim.equiv_phase(u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.ok and peak < u.nbytes // 2


def test_equiv_on_ancilla_cccz():
    from gmsforge.constructions import cccz_3gms
    spec = cccz_3gms()
    r = sim.equiv_on_ancilla(spec.generated, controlled_z_matrix(4), 1e-9)
    assert r.ok and r.failure is None


def test_equiv_on_ancilla_leakage_detected():
    # ancilla deliberately flipped to |1>
    circ = Circuit(2, (rx(1, PI),), frozenset({1}))
    r = sim.equiv_on_ancilla(circ, np.eye(2), 1e-9)
    assert not r.ok and r.failure == "leakage" and r.leakage > 0.9


def test_equiv_on_ancilla_toffoli6():
    spec = toffoli_n(6)
    r = sim.equiv_on_ancilla(spec.generated, toffoli_matrix(6), 1e-9)
    assert r.ok


def test_equiv_on_ancilla_without_ancillas_is_equiv_phase():
    # with no ancillas the whole register is data: the same verdict, phase
    # and deviation as the full-unitary check, against a phase-shifted copy
    # and against an RZ(0.1) mutant
    rng = random.Random(11)
    for case in range(20):
        c = random_circuit(rng, rng.randint(2, 5), rng.randint(1, 12))
        u = sim.unitary_of(c)
        mutant = sim.unitary_of(c.append(rz(rng.randrange(c.n_qubits), 0.1)))
        for v, want_ok in ((np.exp(1j * rng.uniform(-PI, PI)) * u, True),
                           (mutant, False)):
            r = sim.equiv_on_ancilla(c, v, 1e-9)
            pm = sim.equiv_phase(u, v, 1e-9)
            assert r.ok == pm.ok == want_ok, case
            assert r.phase == pm.phase and r.max_deviation == pm.max_deviation
            assert r.leakage == 0.0
            assert r.failure == (None if want_ok else "mismatch")


def test_equiv_on_ancilla_full_width_reference():
    # a reference as wide as the register makes the ancillas data wires
    spec = toffoli_n(5)
    r = sim.equiv_on_ancilla(spec.generated, sim.unitary_of(spec.generated), 1e-9)
    assert r.ok and r.leakage == 0.0
    with pytest.raises(ValueError, match="data register"):
        sim.equiv_on_ancilla(spec.generated, np.eye(4), 1e-9)


# -- permutation references compared in place -----------------------------------

PERMUTATIONS = {
    "fanout(5)": lambda: cons.fanout(5), "fanout(5, 2)": lambda: cons.fanout(5, 2),
    "fanin(6)": lambda: cons.fanin(6), "fanin(4, 2)": lambda: cons.fanin(4, 2),
    "cnot_via_xx": cons.cnot_via_xx, "cnot_via_4gms(4)": lambda: cons.cnot_via_4gms(4, 0, 3),
    "ccz_3gms": cons.ccz_3gms, "cccz_4gms": cons.cccz_4gms, "cccz_3gms": cons.cccz_3gms,
    "toffoli3_gms": cons.toffoli3_gms, "toffoli4_7gms": cons.toffoli4_7gms,
    "toffoli_n(5)": lambda: cons.toffoli_n(5), "toffoli_n(6)": lambda: cons.toffoli_n(6),
}


def data_rows(n, data):
    """The register index of every basis state of the ``data`` wires, the
    other wires 0."""
    d = len(data)
    return sum((np.arange(1 << d) >> (d - 1 - p) & 1) << (n - 1 - q)
               for p, q in enumerate(data))


def copied_rows_match(circuit, v, tol=1e-9, zeroed=None):
    """The dense check as it was before the in-place compare, on columns the
    engine does not make: the pairwise oracle's unitary, restricted to the
    data columns (column ``zeroed`` set to 0).  Copy the data rows out, zero
    them, take the largest |entry| left as the leakage, then ``equiv_phase``
    on the copy, which reads no phase from a pivot entry within tol of 0.
    Returns (ok, failure, phase, deviation, leakage)."""
    n = circuit.n_qubits
    data = range(n) if v.shape == (1 << n, 1 << n) else circuit.data_qubits
    rows = data_rows(n, data)
    cols = oracle_unitary(circuit)[:, rows]
    if zeroed is not None:
        cols[:, zeroed] = 0.0
    w = cols[rows]
    cols[rows] = 0.0
    leakage = float(np.abs(cols).max())
    if leakage > tol:
        return False, "leakage", 1.0 + 0j, float("inf"), leakage
    pm = sim.equiv_phase(w, v, tol)
    return pm.ok, None if pm.ok else "mismatch", pm.phase, pm.max_deviation, leakage


def same_match(circuit, act, zeroed=None):
    """The compare against ``act`` and against ``act.matrix()`` when ``act``
    is an ``IndexMap`` agree on every AncillaMatch field, bit for bit: repr
    keeps a float's every bit and a zero's sign.  ``copied_rows_match``
    against that matrix gives the same verdict, and the same phase,
    deviation and leakage within the oracle's 1e-12."""
    v = act.matrix() if isinstance(act, sim.IndexMap) else act
    got = sim.equiv_on_ancilla(circuit, act)
    assert repr(dataclasses.astuple(got)) == repr(
        dataclasses.astuple(sim.equiv_on_ancilla(circuit, v)))
    ok, failure, phase, dev, leakage = copied_rows_match(circuit, v, zeroed=zeroed)
    assert (got.ok, got.failure) == (ok, failure)
    assert abs(got.phase - phase) < 1e-12 and abs(got.leakage - leakage) < 1e-12
    assert math.isclose(got.max_deviation, dev, rel_tol=0.0, abs_tol=1e-12)
    return got


@pytest.mark.parametrize("make", PERMUTATIONS.values(), ids=PERMUTATIONS)
def test_in_place_compare_is_the_dense_compare(make):
    # the generated circuit passes; an RZ(0.1) mutant on each data wire
    # fails.  On an ancilla, which leaves in |0>, RZ(1e-5) is a global phase
    # and passes, and H leaks
    spec = make()
    assert isinstance(spec.act, sim.IndexMap)
    assert same_match(spec.generated, spec.act).ok
    for q in spec.generated.data_qubits:
        r = same_match(spec.generated.append(rz(q, 0.1)), spec.act)
        assert not r.ok and r.failure == "mismatch"
    for a in sorted(spec.generated.ancillas)[:1]:
        assert same_match(spec.generated.append(rz(a, 1e-5)), spec.act).ok
        r = same_match(spec.generated.append(h(a)), spec.act)
        assert not r.ok and r.failure == "leakage"


def test_in_place_compare_on_the_whole_register():
    # an ancilla circuit against a permutation as wide as its register, so
    # the ancillas are data wires: Toffoli-5 is no identity there, and fails
    spec = cons.toffoli_n(5)
    n = spec.generated.n_qubits
    act = sim.IndexMap(n, lambda: np.arange(1 << n))
    r = same_match(spec.generated, act)
    assert not r.ok and r.failure == "mismatch" and r.leakage == 0.0
    # a circuit's own unitary as the reference: the shrunk Toffoli-5 passes
    # at a phase, and an RZ(0.1) mutant of it fails
    shrunk, u = cons.gms_shrink(spec.generated), sim.unitary_of(spec.generated)
    assert same_match(shrunk, u).ok
    r = same_match(shrunk.append(rz(0, 0.1)), u)
    assert not r.ok and r.failure == "mismatch" and r.leakage == 0.0


def test_in_place_compare_reports_leakage():
    # the Z-axis CCZ erratum of test_ccz_erratum_z_axis_leaks
    good = cons.ccz_3gms().generated
    bad = Circuit(4, tuple(rz(3, PI / 4) if g == ry(3, PI / 4) else g
                           for g in good.gates), frozenset({3}))
    r = same_match(bad, cons.ccz_3gms().act)
    assert not r.ok and r.failure == "leakage" and r.leakage > 0.3
    # an ancilla on the top wire leaks into the lower half of the rows, past
    # the first of the columns' eight row blocks
    wide = Circuit(9, (rx(0, PI),), frozenset({0}))
    r = same_match(wide, sim.IndexMap(8, lambda: np.arange(256)))
    assert r.failure == "leakage" and r.leakage == 1.0


@pytest.mark.parametrize("make", [lambda: cons.fanin(4), cons.ccz_3gms,
                                  lambda: cons.toffoli_n(5)])
def test_in_place_compare_with_no_phase_at_the_pivot(make, monkeypatch):
    # the pivot's column zeroed by hand: lam is 0, both checks fail with
    # phase 1 and the deviation at lam = 1.  With phases of modulus exactly
    # 1 the pivot is the column that V maps to row 0
    spec = make()
    columns, pivot = sim._columns, int(np.argmin(spec.act.dest))

    def zeroed(circuit, data):
        cols, *rest = columns(circuit, data)
        cols[:, pivot] = 0.0
        return cols, *rest

    monkeypatch.setattr(sim, "_columns", zeroed)
    r = same_match(spec.generated, spec.act, zeroed=pivot)
    assert not r.ok and r.phase == 1.0 and r.failure == "mismatch"


@pytest.mark.parametrize("make", [cons.toffoli3_gms, cons.toffoli4_7gms,
                                  lambda: cons.toffoli_n(9)],
                         ids=["toffoli3_gms", "toffoli4_7gms", "toffoli_n(9)"])
def test_no_phase_is_read_from_a_rounding_level_pivot(make):
    # RX(pi) on the last data wire moves V's pivot row out of the pivot's
    # column, which keeps only a rounding residue there, a few 1e-16: no
    # phase is read from it, as from an exact 0
    spec = make()
    mutant = spec.generated.append(rx(spec.generated.data_qubits[-1], PI))
    cols, rows, keys, _ = sim._columns(mutant, mutant.data_qubits)
    pivot = int(np.argmin(spec.act.dest))
    assert keys[0] == keys[pivot] and 0 < abs(cols[rows[0], pivot]) < 1e-15
    for reference in (spec.act, spec.act.matrix()):
        r = sim.equiv_on_ancilla(mutant, reference)
        assert not r.ok and r.failure == "mismatch" and r.phase == 1 + 0j


def plan_run_columns(circuit, data):
    """A whole-register plan's columns run by its register placement on the
    (2^n, 2^d) batch, the path such a plan took before every check ran on
    the moved wires followed by the column index."""
    n, d = circuit.n_qubits, len(data)
    cols = np.zeros((1 << n, 1 << d), dtype=np.complex128)
    cols[data_rows(n, data), np.arange(1 << d)] = 1.0
    sim._run(circuit, cols)
    return cols


def column_corpus():
    """qft_gms(2..8), 40 seeded random circuits that move every wire, with
    random ancillas, then Toffoli-6 and fan-in-6."""
    whole = [qft_gms(n, Exponential()) for n in range(2, 9)]
    rng = random.Random(31)
    while len(whole) < 47:
        n = rng.randint(2, 6)
        c = Circuit(n, random_circuit(rng, n, rng.randint(1, 14)).gates,
                    frozenset(rng.sample(range(n), rng.randint(0, n - 1))))
        if len(sim._plan(c).moved) == n:
            whole.append(c)
    return whole + [cons.toffoli_n(6).generated, cons.fanin(6).generated]


def test_every_plan_runs_its_columns_through_placed(monkeypatch):
    # one column path: ``_columns`` places each segment of every plan once,
    # a plan that moves every wire included, the segments' steps in order
    # and together every step; such a plan's columns keep the bits of its
    # register placement run on the batch
    placed, calls = sim._placed, []

    def counted(steps, at, width):
        calls.append(steps)
        return placed(steps, at, width)

    monkeypatch.setattr(sim, "_placed", counted)
    for c in column_corpus():
        calls.clear()
        cols, rows, keys, _ = sim._columns(c, c.data_qubits)
        plan = sim._plan(c)
        assert len(calls) == len(plan.segments)
        assert [s for steps in calls for s in steps] == list(plan.steps)
        if len(plan.moved) == c.n_qubits:
            want = plan_run_columns(c, c.data_qubits)
            assert cols.tobytes() == want.tobytes()
            assert np.array_equal(rows, data_rows(c.n_qubits, c.data_qubits))
            assert not keys.any()


def full_size_columns(circuit, data):
    """The columns run at full size from the first step, the path every
    check took before they grew as wires move: all 2^|M| x 2^d entries,
    each column's one 1 at its row on M, through the whole plan placed on
    M followed by the column index."""
    plan, d = sim._plan(circuit), len(data)
    k = len(plan.moved)
    at = {q: p for p, q in enumerate(plan.moved)}
    cols = np.zeros((1 << k, 1 << d), dtype=np.complex128)
    cols[sim._spread(d, [1 << (k - 1 - at[q]) if q in at else 0 for q in data]),
         np.arange(1 << d)] = 1.0
    at.update((q, k + p) for p, q in enumerate(data) if q not in at)
    sim._lay(sim._placed(plan.steps, at, k + d), cols.reshape(-1, 1))
    return cols


def test_grown_columns_are_the_full_size_run(monkeypatch):
    # bit for bit on the placement corpus, grown inside the one buffer
    # under the guard; within 1e-15 on random circuits with random
    # ancillas and CNOTs, whose kernels may take other shapes on a
    # narrower state.  Among them, wires first moved between wires
    # already moved, so that a row bit is inserted inside the row index
    dense, zeros = [], sim._dense_zeros

    def counted(n, d):
        dense.append((n, d))
        return zeros(n, d)

    monkeypatch.setattr(sim, "_dense_zeros", counted)
    for c in column_corpus():
        dense.clear()
        got = sim._columns(c, c.data_qubits)[0]
        assert dense == [(len(sim._plan(c).moved), len(c.data_qubits))]
        assert got.tobytes() == full_size_columns(c, c.data_qubits).tobytes()
    rng, inside, worst = random.Random(7), 0, 0.0
    for _ in range(300):
        n = rng.randint(2, 7)
        c = Circuit(n, random_circuit(rng, n, rng.randint(1, 20)).gates,
                    frozenset(rng.sample(range(n), rng.randint(0, n - 1))))
        moved = []
        for new, _, _ in sim._plan(c).segments:
            for q in new:
                inside += 0 < bisect.bisect(moved, q) < len(moved)
                bisect.insort(moved, q)
        got = sim._columns(c, c.data_qubits)[0]
        worst = max(worst, np.abs(got - full_size_columns(c, c.data_qubits)).max())
    assert worst <= 1e-15 and inside > 0


def test_in_place_compare_with_unit_phases():
    # a random permutation with random unit-modulus phases, whose magnitudes
    # differ in the last bits, so the pivot is not simply dest's 0; and a
    # diagonal of phases that a CP circuit implements
    rng = np.random.default_rng(5)
    for d in (2, 3, 5):
        dest = rng.permutation(1 << d)
        phase = np.exp(1j * rng.uniform(-PI, PI, 1 << d))
        act = sim.IndexMap(d, lambda: dest, lambda: phase)
        assert not same_match(random_circuit(random.Random(d), d, 8), act).ok
        assert np.array_equal(act(np.eye(1 << d)), act.matrix())
    c = Circuit(3, (cp(0, 1, 0.3), cp(1, 2, -1.1), rz(0, 0.7)))
    act = sim.IndexMap(3, lambda: np.arange(8), lambda: np.diag(sim.unitary_of(c)))
    assert same_match(c, act).ok
    assert same_match(c.append(rz(2, 0.1)), act).failure == "mismatch"


def basis_keeping_circuit(rng, n, n_gates):
    """Gates that keep the wires above the bottom window in the
    computational basis: there only RZ, CP and pulses in a Hadamard frame
    (which the pulse's own frame cancels); anything on the bottom window,
    CNOTs included.  So the plan moves the bottom window's wires alone."""
    low = range(n - sim.WINDOW, n)
    gates = []
    for _ in range(n_gates):
        r, theta = rng.random(), rng.uniform(-PI, PI)
        if r < 0.3:
            wires = rng.sample(range(n), rng.randint(2, n))
            frame = [h(q) for q in wires if q not in low]
            gates += frame + [gms(wires, Uniform(theta))] + frame
        elif r < 0.5:
            gates.append(cp(*rng.sample(range(n), 2), theta))
        elif r < 0.6:
            gates.append(cnot(*rng.sample(low, 2)))
        else:
            q = rng.randrange(n)
            gates.append(rng.choice([h(q), rx(q, theta), ry(q, theta)]) if q in low
                         else rz(q, theta))
    return gates


def test_in_place_compare_on_unmoved_wires():
    # data wires and ancillas the plan never moves, under tables that span
    # moved and unmoved wires alike: against the oracle's own data block
    # (passes unless a moved ancilla leaks) and a phased permutation.  Every
    # other case draws its ancillas from the unmoved wires alone
    rng, nrng = random.Random(41), np.random.default_rng(41)
    for case in range(12):
        n = rng.randint(5, 8)
        gates = basis_keeping_circuit(rng, n, 14)
        pool = range(n - sim.WINDOW if case % 2 else n)
        ancillas = frozenset(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
        c = Circuit(n, tuple(gates), ancillas)
        moved = sim._plan(c).moved
        assert set(moved) <= set(range(n - sim.WINDOW, n)), case
        d, rows = len(c.data_qubits), data_rows(n, c.data_qubits)
        v = oracle_unitary(c)[np.ix_(rows, rows)]
        r = same_match(c, v)
        assert r.ok or r.failure == "leakage"
        assert r.ok or not set(ancillas).isdisjoint(moved)
        act = sim.IndexMap(d, lambda: nrng.permutation(1 << d),
                           lambda: np.exp(1j * nrng.uniform(-PI, PI, 1 << d)))
        assert not same_match(c, act).ok
        assert not same_match(c.append(rz(c.data_qubits[0], 0.1)), v).ok


def held_beyond_the_columns(c, reference):
    """The check's result and the bytes it holds at its peak beyond the
    2^|M| x 2^d columns on the moved wires M, under tracemalloc; the plan
    is built before."""
    moved = sim._plan(c).moved
    tracemalloc.start()
    try:
        r = sim.equiv_on_ancilla(c, reference)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return r, peak - (16 << (len(moved) + len(c.data_qubits)))


def test_in_place_compare_holds_no_copy_of_the_data_rows():
    # Toffoli-8: 11 qubits, 8 data wires, 4 moved wires, 64 KiB of columns.
    # Beyond them the check holds about 80 KiB, the run's own temporaries; a
    # copy of the data rows alone took 16 * 4^8 bytes (1 MiB)
    spec = cons.toffoli_n(8)
    spec.act.dest, spec.act.phase  # built before the count
    r, held = held_beyond_the_columns(spec.generated, spec.act)
    assert r.ok and r.failure is None
    assert held < 16 * 4**8 // 2


def test_dense_compare_holds_no_copy_of_the_data_rows():
    # the same check against V itself, 16 * 4^8 bytes (1 MiB): subtracted
    # one row block at a time, it holds less beyond the columns than V
    # (about 0.66 MiB, two row blocks and one block's magnitudes), where a
    # copy of the data rows held 1.9 MiB
    spec = cons.toffoli_n(8)
    v = spec.act.matrix()
    r, held = held_beyond_the_columns(spec.generated, v)
    assert r.ok and r.failure is None
    assert held < v.nbytes


def loop_spread(k, masks):
    """The spread as one pass over all 2^k indices per bit: the form before
    the outer OR of two half-width spreads."""
    x = np.arange(1 << k)
    out = np.zeros_like(x)
    for p, m in enumerate(masks):
        out |= (x >> (k - 1 - p) & 1) * m
    return out


def test_spread_is_the_loop_in_half_width_memory():
    # every k <= 12 with distinct single-bit masks, zeros among them, in
    # any order; at k = 20 the output's 8 MiB and two half-width spreads
    rng = random.Random(3)
    for k in range(13):
        for _ in range(8):
            masks = [rng.choice([0, 1 << b]) for b in rng.sample(range(40), k)]
            got = sim._spread(k, masks)
            assert got.dtype == np.int64 and np.array_equal(got, loop_spread(k, masks))
    tracemalloc.start()
    try:
        got = sim._spread(20, [1 << p for p in range(20)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.nbytes == 8 << 20 and peak < got.nbytes + (1 << 20)


def test_all_ones_sign_is_an_index_map():
    act = sim.AllOnesSign(3)
    assert isinstance(act, sim.IndexMap)
    assert np.array_equal(act.matrix(), np.diag([1.0] * 7 + [-1.0]))


def test_trace_fidelity_self():
    u = sim.unitary_of(random_circuit(random.Random(2), 3, 9))
    assert abs(sim.trace_fidelity(u, u) - 1) < 1e-12


def test_trace_fidelity_orthogonal():
    assert sim.trace_fidelity(I2, PAULI_Z) == 0


def test_trace_fidelity_powerlaw_qft6():
    exact = sim.unitary_of(qft_gms(6, Exponential()))
    approx = sim.unitary_of(qft_gms(6, PowerLawSum(((0.4, 2.5), (-0.5, 3.4)), 0)))
    f = sim.trace_fidelity(exact, approx)
    assert 0.9 < f <= 1.0


def trace_formula(u, v):
    """Oracle: |tr(U^dag V)| / dim read off the full product."""
    return abs(np.trace(u.conj().T @ v)) / u.shape[0]


def random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return np.linalg.qr(z)[0]


def test_trace_fidelity_matches_the_trace_formula():
    rng = np.random.default_rng(17)
    for d in (2, 8, 64):
        u, v = random_unitary(rng, d), random_unitary(rng, d)
        for a, b in ((u, v), (u, u * np.exp(0.3j)), (u, u @ v)):
            assert abs(sim.trace_fidelity(a, b) - trace_formula(a, b)) < 1e-12
    params = PowerLawSum(((0.4, 2.5), (-0.5, 3.4)), 0)
    exact = sim.unitary_of(qft_gms(6, Exponential()))
    approx = sim.unitary_of(qft_gms(6, params))
    assert abs(direct_fidelity(6, params) - trace_formula(exact, approx)) < 1e-12


def test_dense_guard(monkeypatch):
    monkeypatch.delenv("GMSFORGE_MAX_DENSE_QUBITS", raising=False)
    with pytest.raises(GuardError):
        sim.unitary_of(empty(13))
    monkeypatch.setenv("GMSFORGE_MAX_DENSE_QUBITS", "13")
    sim.unitary_of(empty(13))  # now allowed


@pytest.mark.parametrize("value", ["abc", "-1", "1.5", "0"])
def test_dense_guard_variable_must_be_a_positive_integer(monkeypatch, value):
    monkeypatch.setenv("GMSFORGE_MAX_DENSE_QUBITS", value)
    with pytest.raises(ArgumentError) as info:
        sim.unitary_of(empty(1))
    assert "GMSFORGE_MAX_DENSE_QUBITS" in str(info.value) and repr(value) in str(info.value)


@pytest.mark.parametrize("value,guard", [(" 12", 12), (" 13\n", 13), ("", 12)])
def test_dense_guard_variable_parsed_as_an_integer(monkeypatch, value, guard):
    monkeypatch.setenv("GMSFORGE_MAX_DENSE_QUBITS", value)
    assert sim.max_dense_qubits() == guard


def test_dense_guard_message_names_bytes(monkeypatch):
    monkeypatch.delenv("GMSFORGE_MAX_DENSE_QUBITS", raising=False)
    with pytest.raises(GuardError) as info:
        sim.unitary_of(empty(13))
    msg = str(info.value)
    assert msg.startswith(f"dense guard: {16 << 26} bytes asked, limit is {16 << 24} bytes")
    assert "GMSFORGE_MAX_DENSE_QUBITS" in msg


def test_unitarity_of_circuit_matrices():
    rng = random.Random(8)
    for _ in range(20):
        u = sim.unitary_of(random_circuit(rng, 4, 15))
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-10


# -- phase-table padding ---------------------------------------------------------

def compile_padding_every_table(monkeypatch, circuit):
    """The plan when every phase table, pulse or not, is padded to the
    bottom window where it fits."""
    real = sim._table_wires
    with monkeypatch.context() as m:
        m.setattr(sim, "_table_wires", lambda wires, n, pulsed: real(wires, n, True))
        sim._layout.cache_clear()
        try:
            return sim._compile(circuit)
        finally:
            sim._layout.cache_clear()


def same_steps(a, b) -> bool:
    def same(x, y):
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            return (isinstance(x, np.ndarray) and isinstance(y, np.ndarray)
                    and x.shape == y.shape and np.array_equal(x, y))
        return x == y

    return len(a.steps) == len(b.steps) and all(
        n1 == n2 and w1 == w2 and same(x1, x2)
        for (n1, w1, x1), (n2, w2, x2) in zip(a.steps, b.steps))


def test_only_tables_with_a_pulse_are_padded(monkeypatch):
    # a table of diagonals alone, as between the CNOTs of a reference,
    # keeps its own wires: padding it made this plan 8x larger
    ref = cons.toffoli_reference(12)
    padded = compile_padding_every_table(monkeypatch, ref)
    plan = sim._compile(ref)
    assert plan.passes == padded.passes and plan.nbytes * 8 < padded.nbytes
    u = sim.unitary_of(cons.toffoli_reference(6))
    assert np.max(np.abs(u - toffoli_matrix(6))) < 1e-12


def test_benchmark_plans_are_unchanged_by_pulse_only_padding(monkeypatch):
    # the benchmark's circuits build no table without a pulse, so their
    # plans are step for step the ones padding every table gave
    circuits = [toffoli_n(7).generated, cons.fanin(9).generated, qft_gms(8, Exponential()),
                toffoli_n(11).generated, qft_gms(16, Exponential()),
                qfa_gms(8, Exponential()), cons.phase_polynomial_identity(17, 0.7),
                tdistill().generated]
    pairs = []  # the pair angles of each table
    real = sim._phase_tables

    def recording(tables):
        pairs.extend(len(p) for _, p, _ in tables)
        return real(tables)

    for circuit in circuits:
        want = compile_padding_every_table(monkeypatch, circuit)
        with monkeypatch.context() as m:
            m.setattr(sim, "_phase_tables", recording)
            got = sim._compile(circuit)
        assert same_steps(got, want) and got.nbytes == want.nbytes
    assert pairs and 0 not in pairs


def test_benchmark_circuits_move_few_wires():
    # the checks run on the moved wires alone, so a compile change that
    # widens them shows here: the Toffoli chain and the fan-in keep their
    # controls in the Z frame around every pulse, the transform and the
    # encoder's fans move most of their wires
    for circuit, moved in ((toffoli_n(7).generated, 4), (cons.fanin(9).generated, 1),
                           (qft_gms(8, Exponential()), 8), (tdistill().generated, 11)):
        plan = sim._plan(circuit)
        assert len(plan.moved) == moved
        # a table spans the wires recorded for it, one axis of 2 each
        assert all(a.size == 1 << len(wires)
                   for name, wires, a in plan.steps if name == "apply_scale")


def test_blocks_move_only_their_pending_wires():
    # a block above the bottom window spans its window, but its wires start
    # at its first pending matrix: on the wires above it the block is the
    # identity, so the columns may run its top left sub-block there; on
    # the register it runs from its window's top
    for n, moved in ((9, 5), (12, 6)):
        plan = sim._plan(toffoli_n(n).generated)
        assert len(plan.moved) == moved
        for (name, wires, blk), (_, _, args) in zip(plan.steps, plan.register):
            if name == "apply_block":
                size = 1 << len(wires)
                assert np.array_equal(args[0], blk)
                assert wires[0] >= args[1] and len(blk) == size << wires[0] - args[1]
                assert np.array_equal(blk, np.kron(np.eye(len(blk) // size),
                                                   blk[:size, :size]))
