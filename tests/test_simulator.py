import math
import random
import tracemalloc

import numpy as np
import pytest

from conftest import (HADAMARD, I2, PAULI_Z, controlled_z_matrix, kron_all,
                      random_circuit, random_state, toffoli_matrix, xx_matrix)
from gmsforge import sim
from gmsforge.circuit import (ArgumentError, Circuit, Uniform, empty, gms, h, rx,
                              rz, xx)
from gmsforge.constructions import (TDISTILL_FANS, fanout, tdistill,
                                    toffoli3_gms, toffoli_n)
from gmsforge.fourier import qft_gms
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
    out = sim.apply(Circuit(1, (h(0),)), sim.basis_state(1, 0))
    assert np.allclose(out, np.array([1, 1]) / math.sqrt(2))


def test_fanout_copies_basis_state():
    circ = fanout(4).generated
    out = sim.apply(circ, sim.basis_state(4, 0b1000))
    hit = int(np.argmax(np.abs(out)))
    assert hit == 0b1111 and abs(abs(out[hit]) - 1) < 1e-9


def test_tdistill_statevector_matches_gf2():
    rng = random.Random(23)
    circ = tdistill().generated
    layers = [FanLayer(c, frozenset(t)) for c, t in TDISTILL_FANS]
    m = linear_simulate(layers, 15)
    for _ in range(5):
        x = rng.randrange(1 << 15)
        out = sim.apply(circ, sim.basis_state(15, x))
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


def test_dense_guard(monkeypatch):
    monkeypatch.delenv("GMSFORGE_MAX_DENSE_QUBITS", raising=False)
    with pytest.raises(sim.DenseGuardError):
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
    with pytest.raises(sim.DenseGuardError) as info:
        sim.unitary_of(empty(13))
    msg = str(info.value)
    assert "guard" in msg and str(16 << 26) in msg and str(16 << 24) in msg


def test_unitarity_of_circuit_matrices():
    rng = random.Random(8)
    for _ in range(20):
        u = sim.unitary_of(random_circuit(rng, 4, 15))
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-10
