"""Shared helpers: seeded random circuit/matrix generators and oracles."""

from __future__ import annotations

import cmath
import math
import random
from collections.abc import Iterable

import numpy as np

from gmsforge import kernels, sim
from gmsforge.circuit import (Circuit, Exponential, PerPair, Uniform,
                              check_register, cnot, cp, gms, h, rx, ry, rz, xx)
from gmsforge.gf2 import FanLayer, Gf2Matrix, synthesize_linear


def random_gate(rng: random.Random, n: int):
    kind = rng.choice(["H", "RX", "RY", "RZ", "CNOT", "CP", "XX", "GMS"])
    theta = rng.uniform(-2 * math.pi, 2 * math.pi)
    if kind == "H":
        return h(rng.randrange(n))
    if kind in ("RX", "RY", "RZ"):
        return {"RX": rx, "RY": ry, "RZ": rz}[kind](rng.randrange(n), theta)
    a, b = rng.sample(range(n), 2)
    if kind == "CNOT":
        return cnot(a, b)
    if kind == "CP":
        return cp(a, b, theta)
    if kind == "XX":
        return xx(a, b, theta)
    size = rng.randint(2, n)
    qubits = sorted(rng.sample(range(n), size))
    style = rng.choice(["uniform", "per_pair", "exponential"])
    if style == "uniform":
        return gms(qubits, Uniform(theta))
    if style == "exponential":
        return gms(qubits, Exponential())
    table = tuple((qubits[i], qubits[j], rng.uniform(-math.pi, math.pi))
                  for i in range(size) for j in range(i + 1, size))
    return gms(qubits, PerPair(table))


def random_circuit(rng: random.Random, n: int, n_gates: int) -> Circuit:
    return Circuit(n, tuple(random_gate(rng, n) for _ in range(n_gates)))


def random_echo_circuit(rng: random.Random, n: int, n_gates: int) -> Circuit:
    """Random circuit seeded with spin-echo patterns the rewrite can fire on."""
    gates = []
    for _ in range(n_gates):
        if rng.random() < 0.4:
            a, b = rng.sample(range(n), 2)
            theta = rng.uniform(-math.pi, math.pi)
            echo_q = rng.choice([a, b])
            gates += [xx(a, b, theta), rz(echo_q, math.pi), xx(a, b, theta)]
        elif rng.random() < 0.3 and n >= 3:
            qs = sorted(rng.sample(range(n), 3))
            theta = rng.uniform(-math.pi, math.pi)
            gates += [gms(qs, Uniform(theta)), rz(rng.choice(qs), math.pi),
                      gms(qs, Uniform(theta))]
        else:
            gates.append(random_gate(rng, n))
    return Circuit(n, tuple(gates))


def random_invertible_gf2(rng: random.Random, n: int) -> Gf2Matrix:
    while True:
        rows = tuple(rng.randrange(1, 1 << n) for _ in range(n))
        m = Gf2Matrix(n, rows)
        if is_invertible(m):
            return m


# -- oracles on the IR -----------------------------------------------------------

def compose(a: Circuit, b: Circuit) -> Circuit:
    """Gates of a followed by gates of b (unitary U_b U_a)."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"width mismatch: {a.n_qubits} vs {b.n_qubits}")
    return Circuit(a.n_qubits, a.gates + b.gates, a.ancillas | b.ancillas)


def expand_gms(c: Circuit) -> Circuit:
    """Every GMS replaced by its XX pair list (pairs commute, order free)."""
    gates = []
    for g in c.gates:
        if g.kind == "GMS":
            gates.extend(xx(i, j, chi) for i, j, chi in g.pair_angles())
        else:
            gates.append(g)
    return Circuit(c.n_qubits, tuple(gates), c.ancillas)


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    state = np.zeros(1 << n_qubits, dtype=np.complex128)
    state[index] = 1.0
    return state


# -- the engine's oracle: one kernel pass per gate -------------------------------

def pairwise_run(circuit: Circuit, st: np.ndarray) -> np.ndarray:
    """Oracle: every gate applied on its own, a GMS as one XX pass per pair."""
    be = kernels.BACKEND
    n = circuit.n_qubits

    def mask(q):
        return 1 << (n - 1 - q)

    for g in circuit.gates:
        if g.kind == "GMS":
            for i, j, chi in g.pair_angles():
                be.apply_xx(st, math.cos(chi / 2) + 0j, math.sin(chi / 2) + 0j,
                            mask(i), mask(j))
        elif g.kind == "XX":
            be.apply_xx(st, math.cos(g.theta / 2) + 0j, math.sin(g.theta / 2) + 0j,
                        mask(g.qubits[0]), mask(g.qubits[1]))
        elif g.kind == "CNOT":
            be.apply_cnot(st, mask(g.qubits[0]), mask(g.qubits[1]))
        elif g.kind == "CP":
            be.apply_cp(st, mask(g.qubits[0]), mask(g.qubits[1]),
                        cmath.exp(1j * g.theta))
        elif g.kind == "PHASE":
            be.apply_scale(st, cmath.exp(1j * g.theta))
        else:
            be.apply_1q(st, *sim._one_qubit_matrix(g), mask(g.qubits[0]))
    return st


def oracle_unitary(circuit):
    return pairwise_run(circuit, np.eye(1 << circuit.n_qubits, dtype=complex))


def one_table(wires, pairs, diag) -> np.ndarray:
    """Oracle: the phase table of one record (wires, pairs, diag) of
    ``sim._sweep``, built alone by the one-table recurrence over the wires
    its pairs and diagonals touch and repeated over the rest of ``wires``;
    flat over the bits of ``wires``, first most significant."""
    core = sorted({q for i, j, _ in pairs for q in (i, j)}.union(diag))
    k = len(core)
    pos = {q: a for a, q in enumerate(core)}
    chi = np.zeros((k, k))
    for i, j, c in pairs:
        chi[pos[i], pos[j]] += c
    pair = np.exp(np.multiply.outer(chi + chi.T, [-0.5j, 0.5j]))
    field = np.ones((k, 1), dtype=np.complex128)
    phases = np.empty(1 << k, dtype=np.complex128)
    e = 1.0
    for q, (a, _, _, b) in diag.items():
        field[pos[q]] = u = cmath.sqrt(a / b)
        e *= a / u
    phases[0] = e
    for w in reversed(range(k)):
        s = 1 << (k - 1 - w)
        np.multiply(phases[:s], field[w].conj(), out=phases[s:2 * s])
        phases[:s] *= field[w]
        field = (field[:w, None] * pair[w, :w, :, None]).reshape(w, 2 * s)
    axes = [2 if q in pos else 1 for q in wires]
    return np.broadcast_to(phases.reshape(axes), (2,) * len(wires)).reshape(-1)


# -- oracles over GF(2) ----------------------------------------------------------

def gf2_mul(a: Gf2Matrix, b: Gf2Matrix) -> Gf2Matrix:
    """The product a . b: row i of a selects the rows of b it XORs."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    out = []
    for r in a.rows:
        acc, j = 0, 0
        while r:
            if r & 1:
                acc ^= b.rows[j]
            r >>= 1
            j += 1
        out.append(acc)
    return Gf2Matrix(a.n, tuple(out))


def is_invertible(m: Gf2Matrix) -> bool:
    rows = list(m.rows)
    for k in range(m.n):
        pivot = next((i for i in range(k, m.n) if (rows[i] >> k) & 1), None)
        if pivot is None:
            return False
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(m.n):
            if i != k and (rows[i] >> k) & 1:
                rows[i] ^= rows[k]
    return True


def gf2_transpose(m: Gf2Matrix) -> Gf2Matrix:
    return Gf2Matrix(m.n, tuple(m.column(j) for j in range(m.n)))


def fan_gms_cost(layers: Iterable[FanLayer]) -> int:
    """Pulse count of a fan-layer list: 2 per real fan, 1 per bare CNOT."""
    return sum(2 if len(layer.targets) >= 2 else 1 for layer in layers)


def stabilizer_gms_bound(n: int) -> tuple[int, dict[str, int]]:
    """Pulse budget for an n-qubit stabilizer unitary via its 9-stage
    layered form: two triangular CNOT stages and two general ones.

    Pure count arithmetic (12n - 18 total); this does not synthesize a
    tableau.
    """
    check_register(n, 2)
    triangular = 2 * n - 3
    general = 2 * triangular
    breakdown = {
        "cnot_stage_triangular_1": triangular,
        "cnot_stage_triangular_2": triangular,
        "cnot_stage_general_1": general,
        "cnot_stage_general_2": general,
    }
    total = sum(breakdown.values())
    assert total == 12 * n - 18
    return total, breakdown


def gms_count_linear(m: Gf2Matrix) -> int:
    """Entangling pulses to synthesize an invertible linear transfer matrix:
    at most 2n-3 per triangular factor, so 2(2n-3) in all; the permutation
    stage is free relabeling."""
    return fan_gms_cost(synthesize_linear(m)[0])


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def kron_all(mats) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def xx_matrix(chi: float) -> np.ndarray:
    c, s = math.cos(chi / 2), math.sin(chi / 2)
    return c * np.eye(4, dtype=complex) - 1j * s * np.kron(PAULI_X, PAULI_X)


def toffoli_matrix(n: int) -> np.ndarray:
    dim = 1 << n
    perm = list(range(dim - 2)) + [dim - 1, dim - 2]
    return np.eye(dim, dtype=complex)[:, perm]


def controlled_z_matrix(n: int) -> np.ndarray:
    d = np.eye(1 << n, dtype=complex)
    d[-1, -1] = -1
    return d
