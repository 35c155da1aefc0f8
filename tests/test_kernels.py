import cmath
import importlib.util
import inspect
import math
import random
from pathlib import Path

import numpy as np
import pytest

from conftest import (basis_state, one_table, oracle_unitary, pairwise_run,
                      random_circuit, random_state)
from gmsforge import constructions as cons
from gmsforge import kernels, sim
from gmsforge.circuit import (Circuit, Exponential, PerPair, PowerLawSum,
                              Uniform, cnot, cp, global_phase, gms, h, rx, ry,
                              rz, xx)
from gmsforge.fourier import qfa_gms, qft_gms


def oracle_state(circuit, psi):
    return pairwise_run(circuit, psi.reshape(-1, 1).copy()).reshape(-1)


def random_profile(rng, wires):
    kind = rng.choice(["uniform", "per_pair", "exponential", "power_law"])
    if kind == "uniform":
        return Uniform(rng.uniform(-math.pi, math.pi))
    if kind == "exponential":
        return Exponential()
    if kind == "power_law":
        terms = tuple((rng.choice([-1, 1]) * rng.uniform(0.3, 3.0), rng.uniform(0.5, 3.5))
                      for _ in range(rng.randint(1, 2)))
        return PowerLawSum(terms, offset=rng.choice([0, 1]))
    return PerPair(tuple((a, b, rng.uniform(-math.pi, math.pi))
                         for k, a in enumerate(wires) for b in wires[k + 1:]))


def random_pulse_circuit(rng, n, n_gates):
    """Pulses on unsorted, non-contiguous wire sets of every profile kind,
    mixed with single-qubit runs and the other multi-qubit gates."""
    gates = []
    for _ in range(n_gates):
        r = rng.random()
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        if r < 0.35:
            wires = rng.sample(range(n), rng.randint(2, n))  # unsorted
            gates.append(gms(wires, random_profile(rng, wires)))
        elif r < 0.75:
            q = rng.randrange(n)
            gates.append(rng.choice([h(q), rx(q, theta), ry(q, theta), rz(q, theta)]))
        elif r < 0.95:
            a, b = rng.sample(range(n), 2)
            gates.append(rng.choice([cnot(a, b), cp(a, b, theta), xx(a, b, theta)]))
        else:
            gates.append(global_phase(theta))
    return Circuit(n, tuple(gates))


def test_engine_matches_pairwise_oracle_on_states():
    rng = random.Random(13)
    nrng = np.random.default_rng(13)
    for _ in range(60):
        n = rng.choice([2, 3, 4, 5, 6, 7])
        circ = random_pulse_circuit(rng, n, 14)
        psi = random_state(nrng, n)
        assert np.max(np.abs(sim.apply(circ, psi) - oracle_state(circ, psi))) < 1e-12


def test_engine_matches_pairwise_oracle_on_unitaries():
    rng = random.Random(29)
    circuits = [random_pulse_circuit(rng, rng.choice([3, 4, 5]), 12) for _ in range(20)]
    # constructions whose columns run on fewer wires than the register's
    # and are scattered into the unitary
    for spec in (cons.toffoli_n(5), cons.fanin(6), cons.ccz_3gms()):
        circ = spec.generated
        assert len(sim._plan(circ).moved) < circ.n_qubits
        circuits.append(circ)
    for circ in circuits:
        assert np.max(np.abs(sim.unitary_of(circ) - oracle_unitary(circ))) < 1e-12


@pytest.mark.parametrize("profile", [
    Uniform(0.7), Exponential(), PowerLawSum(((0.4, 2.5), (-0.5, 3.4))),
    PowerLawSum(((1.3, 1.0),), offset=1),
    PerPair(((0, 2, 0.3), (0, 5, -1.1), (2, 5, 2.2))),
], ids=["uniform", "exponential", "power_law_two_term", "power_law_offset",
        "per_pair"])
@pytest.mark.parametrize("wires", [(5, 0, 2), (2, 5, 0), (0, 2, 5)])
def test_single_pulse_on_scattered_wires(profile, wires):
    circ = Circuit(6, (gms(wires, profile),))
    assert np.max(np.abs(sim.unitary_of(circ) - oracle_unitary(circ))) < 1e-12


def test_single_qubit_runs_interrupted_by_two_qubit_gates():
    gates = (h(0), rz(0, 0.3), rx(1, 1.1), cnot(0, 1), ry(0, -0.4), h(0),
             rz(1, 0.8), cp(1, 2, 0.9), h(1), h(1), rx(2, 0.2), xx(2, 0, 1.7),
             rz(2, -2.1), h(2), gms((2, 0, 1), Uniform(0.5)), h(0), rz(0, 0.6),
             global_phase(0.25), h(1))
    circ = Circuit(3, gates)
    psi = random_state(np.random.default_rng(5), 3)
    assert np.max(np.abs(sim.apply(circ, psi) - oracle_state(circ, psi))) < 1e-12
    assert np.max(np.abs(sim.unitary_of(circ) - oracle_unitary(circ))) < 1e-12


def test_wide_pulse_matches_oracle():
    # a full-register pulse and a scattered one on a 12-qubit state
    nrng = np.random.default_rng(7)
    wires = (11, 3, 0, 7, 4)
    circ = Circuit(12, (gms(range(12), PowerLawSum(((0.4, 2.5), (-0.5, 3.4)))),
                        rx(3, 0.4), gms(wires, Exponential()), h(11)))
    psi = random_state(nrng, 12)
    assert np.max(np.abs(sim.apply(circ, psi) - oracle_state(circ, psi))) < 1e-12


def test_pulse_makes_no_xx_pass(monkeypatch):
    # every multi-qubit gate but CNOT is a phase table between frames, so
    # pulses, XX, CP, PHASE and single-qubit runs make no apply_1q, apply_xx
    # or apply_cp call: those three are the oracle's kernels only
    rng = random.Random(17)
    circuits = [Circuit(4, (gms(range(4), Uniform(0.3)),))]
    circuits += [random_pulse_circuit(rng, n, 14) for n in (2, 3, 5, 7) for _ in range(5)]
    counts = count_kernels(monkeypatch)
    for circ in circuits:
        sim.apply(circ, basis_state(circ.n_qubits, 0))
        sim.unitary_of(circ)
    assert counts["apply_1q"] == counts["apply_xx"] == counts["apply_cp"] == 0
    assert counts["apply_scale"] > 0
    for circ in circuits:
        assert not {name for name, _, _ in sim._plan(circ).steps} & {
            "apply_1q", "apply_xx", "apply_cp"}


# Windowed flushes: the pending matrices of WINDOW adjacent wires, counted
# from the least significant wire, are applied as one block.

def assert_states_match(circ, nrng):
    psi = random_state(nrng, circ.n_qubits)
    assert np.max(np.abs(sim.apply(circ, psi) - oracle_state(circ, psi))) < 1e-12


@pytest.mark.parametrize("n", [9, 10, 13, 15])
def test_windowed_flush_matches_oracle_on_states(n):
    # several windows, a partial top window (none of these is a multiple of
    # 4) and pulses straddling window edges; rest = 1 is the GEMM path, and
    # 2^15 entries take two scratch-buffer chunks per block pass
    rng = random.Random(n)
    nrng = np.random.default_rng(n)
    for _ in range(4):
        assert_states_match(random_pulse_circuit(rng, n, 16), nrng)


def test_windowed_flush_matches_oracle_on_unitaries():
    # batch = 512 > 1: every window, the bottom one too, is a 3-D block pass
    rng = random.Random(9)
    for _ in range(3):
        circ = random_pulse_circuit(rng, 9, 10)
        assert np.max(np.abs(sim.unitary_of(circ) - oracle_unitary(circ))) < 1e-12


@pytest.mark.parametrize("n, batch", [(13, 3), (13, 5), (8, 100)])
def test_batch_that_is_not_a_power_of_two(n, batch):
    # the last chunk of a block pass is shorter than the scratch buffer, and
    # 16 x 100 columns are no multiple of the product width
    nrng = np.random.default_rng(batch)
    circ = Circuit(n, tuple(rx(q, 0.3 * q + 0.1) for q in range(n))
                   + (gms(range(n), Exponential()), ry(n - 1, 0.7)))
    st = nrng.normal(size=(1 << n, batch)) + 1j * nrng.normal(size=(1 << n, batch))
    want = pairwise_run(circ, st.copy())
    sim._run(circ, st)
    assert np.max(np.abs(st - want)) < 1e-12


# The three forms of a block pass: rows of at most ROW entries (one state's
# bottom wires) times the real form, and real or complex slab products.

def block_of(gates):
    """The Kronecker product of one single-qubit gate per wire, in order."""
    blk = np.ones((1, 1))
    for g in gates:
        blk = np.kron(blk, np.reshape(sim._one_qubit_matrix(g), (2, 2)))
    return blk


@pytest.mark.parametrize("n", range(5, 17))
def test_block_forms_match_oracle(n):
    nrng = np.random.default_rng(n)
    forms = set()
    for batch in (1, 3, 128):
        if batch << n > 1 << 16:
            continue
        st = nrng.normal(size=(1 << n, batch)) + 1j * nrng.normal(size=(1 << n, batch))
        for g, last in ((1, True), (2, True), (4, True), (1, False), (4, False)):
            top = n - g if last else max(0, n - g - 3)
            for real in (True, False):
                wires = range(top, top + g)
                gates = [ry(q, 0.4 * q + 0.3) if real or (q - top) % 2
                         else rx(q, 0.3 * q - 0.2) for q in wires]
                blk = block_of(gates)
                assert (blk.dtype.kind == "f") == real
                rest = batch << (n - top - g)
                forms.add("rows" if (1 << g) * rest <= kernels.ROW else
                          "real slab" if real else "complex slab")
                want = pairwise_run(Circuit(n, tuple(gates)), st.copy())
                got = st.copy()
                kernels.BACKEND.apply_block(got, blk, top)
                assert np.max(np.abs(got - want)) < 1e-12, (batch, g, last, real)
    assert forms == {"rows", "real slab", "complex slab"}


def test_zyz_split():
    # m = diag(p1, p2) @ [[c, -s], [s, c]] @ diag(1, psi), the middle real
    def product(m):
        (p1, p2), rot, psi = sim._zyz(m)
        assert all(isinstance(x, float) for x in rot)
        return np.diag([p1, p2]) @ np.reshape(rot, (2, 2)) @ np.diag([1, psi])

    rng = np.random.default_rng(11)
    mats = []
    for theta, phi, chi, alpha in rng.uniform(-math.pi, math.pi, size=(200, 4)):
        a, b = math.cos(theta) * cmath.exp(1j * phi), math.sin(theta) * cmath.exp(1j * chi)
        mats.append(cmath.exp(1j * alpha) * np.array([[a, -b.conjugate()],
                                                      [b, a.conjugate()]]))
    mats.append(np.array([[0, 1j], [np.exp(0.3j), 0]]))  # anti-diagonal
    t = 1e-16
    mats.append(np.array([[np.sqrt(1 - t * t), -t], [t, np.sqrt(1 - t * t)]])
                @ np.diag([np.exp(0.7j), np.exp(-0.2j)]))  # |m10| ~ 1e-16
    m = np.reshape(sim._H, (2, 2)) @ np.reshape(sim._one_qubit_matrix(rx(0, 0.4)), (2, 2))
    mats.append(m * np.exp(0.8j))  # a PHASE riding on H RX
    for m in mats:
        assert np.max(np.abs(product(tuple(m.ravel())) - m)) < 1e-15


def test_diagonal_table_is_the_kronecker_product():
    # a table with no pulse multiplies a state by the Kronecker product of
    # its diagonals, also on the bottom-window wires it is padded to
    rng, nrng = random.Random(5), np.random.default_rng(5)
    for n in (3, 6, 9, 12, 16):
        for _ in range(4):
            diag = {q: (cmath.exp(1j * rng.uniform(-3, 3)), 0, 0,
                        cmath.exp(1j * rng.uniform(-3, 3)))
                    for q in rng.sample(range(n), rng.randint(1, min(n, 6)))}
            want = np.ones(1)
            for q in range(n):
                m = diag.get(q, (1, 0, 0, 1))
                want = np.multiply.outer(want, [m[0], m[3]]).reshape(-1)
            # the table on its own wires, as between CNOTs, and padded
            for wires in (diag, sim._table_wires(diag, n, True)):
                st = random_state(nrng, n)
                got = st.reshape(-1, 1).copy()
                [table] = sim._phase_tables([(tuple(sorted(wires)), [], diag)])
                view, shape = sim._layout(tuple(sorted(wires)), n)
                kernels.BACKEND.apply_scale(got.reshape(*view, 1), table.reshape(*shape, 1))
                assert np.max(np.abs(got[:, 0] - want * st)) < 1e-15


def test_window_edges_and_early_flush():
    # wires 4/5 and 8/9 sit on either side of a window edge in a 10-qubit
    # register; each gate touches one window and flushes its neighbours early
    nrng = np.random.default_rng(3)
    gates = [h(q) for q in range(10)] + [rx(q, 0.3 * q + 0.1) for q in range(10)]
    gates += [cnot(5, 6), ry(4, 0.7), cp(4, 5, 1.3), rz(9, 0.4), h(8),
              xx(9, 8, 0.8), gms((1, 4, 5, 9), Uniform(0.6)), ry(0, 1.1),
              rx(1, -0.5), cnot(0, 1), h(2), h(3), rz(7, 0.9)]
    assert_states_match(Circuit(10, tuple(gates)), nrng)


def test_window_with_one_diagonal_wire(monkeypatch):
    # the one pending matrix of wire 8's window is an RZ: it joins a table
    # before the CNOT and another at the end, while wire 0's RX is a block
    counts = count_kernels(monkeypatch)
    circ = Circuit(9, (rx(0, 0.4), rz(8, 0.3), cnot(8, 0), rz(8, -1.2)))
    psi = random_state(np.random.default_rng(8), 9)
    got = sim.apply(circ, psi)
    assert counts == {"apply_1q": 0, "apply_block": 1, "apply_xx": 0,
                      "apply_cnot": 1, "apply_cp": 0, "apply_scale": 2}
    assert [name for name, _, _ in sim._plan(circ).steps] == [
        "apply_scale", "apply_block", "apply_cnot", "apply_scale"]
    assert np.max(np.abs(got - oracle_state(circ, psi))) < 1e-12


KERNELS = ("apply_1q", "apply_block", "apply_xx", "apply_cnot", "apply_cp",
           "apply_scale")


def count_kernels(monkeypatch) -> dict[str, int]:
    """Calls of every kernel on ``BACKEND`` from now on, by name."""
    counts = dict.fromkeys(KERNELS, 0)
    for name in KERNELS:
        real = getattr(kernels.BACKEND, name)

        def counted(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(kernels.BACKEND, name, staticmethod(counted))
    return counts


def assert_kernels_match_passes(counts, passes):
    assert passes == {"block": counts["apply_block"], "phase": counts["apply_scale"],
                      "cnot": counts["apply_cnot"]}
    assert counts["apply_1q"] == counts["apply_xx"] == counts["apply_cp"] == 0


def test_lone_pulse_pass_budget(monkeypatch):
    counts = count_kernels(monkeypatch)
    n = 13
    sim.apply(Circuit(n, (gms(range(n), Uniform(0.3)),)), basis_state(n, 0))
    assert counts["apply_block"] <= 2 * math.ceil(n / sim.WINDOW)
    assert counts["apply_scale"] == 1
    assert counts["apply_1q"] == 0 and counts["apply_xx"] == 0


def load_bench(name):
    """A module of the benchmark, loaded read-only from its file."""
    path = Path(__file__).resolve().parents[1] / "gmsbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"gmsbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_kernels_are_on_the_backend():
    # the benchmark's traced run wraps each of these with getattr on BACKEND
    tracing = load_bench("tracing")
    assert tracing.KERNELS
    for name in tracing.KERNELS:
        assert callable(getattr(sim.BACKEND, name)), name


def test_tracing_sim_names_are_functions_of_sim():
    # the traced run wraps each of these with getattr on gmsforge.sim
    tracing = load_bench("tracing")
    assert tracing.SIM
    for name in tracing.SIM:
        assert inspect.isfunction(getattr(sim, name, None)), name


# Folds: a pulse wire whose pending matrix, the pulse's Hadamard included,
# is diagonal up to rounding rides in the pulse's phase table, unflushed.

def folded_wires(monkeypatch) -> list[set]:
    """The wires folded into each phase table built from now on."""
    folds = []
    real = sim._phase_tables

    def recording(tables):
        folds.extend(set(diag) for _, _, diag in tables)
        return real(tables)
    monkeypatch.setattr(sim, "_phase_tables", recording)
    return folds


def assert_matches_oracle(circ, nrng):
    assert_states_match(circ, nrng)
    assert np.max(np.abs(sim.unitary_of(circ) - oracle_unitary(circ))) < 1e-12


PROFILES = (Uniform(0.7), Exponential(), PowerLawSum(((0.4, 2.5), (-0.5, 3.4))))


def pulses_between(n, runs):
    """A pulse on every wire, then after each run of gates another pulse."""
    gates = [gms(range(n), PROFILES[0])]
    for i, run in enumerate(runs):
        gates += run
        gates.append(gms(range(n), PROFILES[(i + 1) % len(PROFILES)]))
    return Circuit(n, tuple(gates))


def test_fold_rx_runs(monkeypatch):
    # H RX H is diagonal: block passes for the first pulse's Hadamards and
    # at the end, none between the pulses, so the three share one table
    n = 6
    circ = pulses_between(n, [[rx(q, 0.3 * q + 0.2) for q in range(n)],
                              [rx(1, 0.5), rx(1, -1.2), rx(4, 2.0)]])
    folds = folded_wires(monkeypatch)
    counts = count_kernels(monkeypatch)
    sim.apply(circ, basis_state(n, 0))
    assert folds == [set(range(n))]
    assert counts["apply_block"] == 2 * math.ceil(n / sim.WINDOW)
    monkeypatch.undo()
    assert_matches_oracle(circ, np.random.default_rng(1))


def test_fold_h_rz_h_sandwiches(monkeypatch):
    # H H RZ leaves a ~1e-16 residue off the diagonal: folded all the same,
    # and with no pass between them the three pulses share one table
    n = 5
    run = [g for q in range(n) for g in (h(q), rz(q, 0.4 * q - 0.9), h(q))]
    circ = pulses_between(n, [run, run[:6]])
    folds = folded_wires(monkeypatch)
    sim.apply(circ, basis_state(n, 0))
    assert folds == [set(range(n))]
    monkeypatch.undo()
    assert_matches_oracle(circ, np.random.default_rng(2))


def test_fold_carries_a_global_phase(monkeypatch):
    # the PHASE rides on the first pending matrix, a pulse wire's H, which
    # the next pulse folds into the table it shares with the first
    n = 4
    circ = pulses_between(n, [[global_phase(0.8), rx(0, 0.6)]])
    folds = folded_wires(monkeypatch)
    sim.apply(circ, basis_state(n, 0))
    assert folds == [{0}]
    monkeypatch.undo()
    assert_matches_oracle(circ, np.random.default_rng(3))


def test_fold_beside_a_flushed_wire(monkeypatch):
    # wires 2-5 are one window: at the second pulse 3 and 4 fold and 5's
    # Hadamards cancel, while 2's H RY H is split: its right diagonal joins
    # the first table, its real rotation is the window's block and its left
    # diagonal joins the second table; wires 0-1 sit outside the pulse and
    # stay pending until the end
    n = 6
    circ = Circuit(n, (gms((2, 3, 4, 5), PROFILES[1]), rx(3, 0.4), rx(4, -0.8),
                       ry(2, 1.1), ry(0, 0.6), h(1),
                       gms((5, 3, 4, 2), PROFILES[2]), rx(3, 0.2)))
    folds = folded_wires(monkeypatch)
    counts = count_kernels(monkeypatch)
    sim.apply(circ, basis_state(n, 0))
    assert folds == [{2}, {2, 3, 4}]
    assert counts["apply_block"] == 4  # one per pulse, two at the end
    monkeypatch.undo()
    assert_matches_oracle(circ, np.random.default_rng(4))


def test_folded_rz_mutant_fails_the_ancilla_check(monkeypatch):
    # an RZ(0.1) inside an H RZ H sandwich stays on a folded wire; wire 4 is
    # an idle ancilla, so the check runs the ancilla path
    data = 4
    run = [g for q in range(data) for g in (h(q), rz(q, 0.5 + q), h(q))]
    good = pulses_between(data, [run])
    bad = pulses_between(data, [run[:4] + [rz(1, 0.1)] + run[4:]])
    want = oracle_unitary(good)
    folds = folded_wires(monkeypatch)
    for circ, ok in ((good, True), (bad, False)):
        r = sim.equiv_on_ancilla(Circuit(data + 1, circ.gates, frozenset({data})),
                                 want, 1e-9)
        assert r.ok == ok and r.leakage == 0.0
        assert folds[-1] == set(range(data))
    assert r.failure == "mismatch" and r.max_deviation > 1e-2


# The most block passes one state may take through the benchmark's circuits:
# without the fold they took 44, 48, 44, 24, 25 and 16, and before every
# diagonal pending matrix joined a table 32, 16, 23, 17, 18 and 8, so a
# change that loses either fails here.
BLOCK_BUDGET = {
    "toffoli_n(11)": (lambda: cons.toffoli_n(11).generated, 29),
    "qft_gms(16)": (lambda: qft_gms(16, Exponential()), 16),
    "qfa_gms(8)": (lambda: qfa_gms(8, Exponential()), 21),
    "tdistill": (lambda: cons.tdistill().generated, 16),
    "toffoli_n(7)": (lambda: cons.toffoli_n(7).generated, 15),
    "qft_gms(8)": (lambda: qft_gms(8, Exponential()), 8),
}


# The phase passes one state takes through the same circuits: with one
# table per pulse they took 27, 30, 44, 10, 15 and 14, so a change that stops
# adjacent pulses from sharing a table fails here.  The diagonal matrices of
# a window join a table that is open anyway, so they add none.
PHASE_BUDGET = {"toffoli_n(11)": 27, "qft_gms(16)": 15, "qfa_gms(8)": 20,
                "tdistill": 5, "toffoli_n(7)": 15, "qft_gms(8)": 7}


@pytest.mark.parametrize("name", BLOCK_BUDGET)
def test_block_pass_budget(name, monkeypatch):
    build, budget = BLOCK_BUDGET[name]
    circ = build()
    counts = count_kernels(monkeypatch)
    st = basis_state(circ.n_qubits, 0).reshape(-1, 1)
    passes = sim._run(circ, st)
    assert counts["apply_block"] <= budget
    assert counts["apply_scale"] == PHASE_BUDGET[name]
    assert_kernels_match_passes(counts, passes)


# The bytes the plan of each stimulus_wide circuit may hold.  Before phase
# tables took in the bottom window, blocks were split and the end join kept
# to the last table's wires, they held 138368, 2163072, 2199104, 2097152
# and 114688 bytes, so a change that widens tables fails here and not only
# in the benchmark's peak memory.
PLAN_BYTES = {"toffoli_n(11)": 72384, "qft_gms(16)": 2616992, "qfa_gms(8)": 1143776,
              "phase_polynomial_identity(17)": 2097152, "tdistill": 274944}
BUILDS = {name: build for name, (build, _) in BLOCK_BUDGET.items()}
BUILDS["phase_polynomial_identity(17)"] = lambda: cons.phase_polynomial_identity(17, 0.9)


@pytest.mark.parametrize("name", PLAN_BYTES)
def test_plan_bytes_budget(name):
    assert sim._plan(BUILDS[name]()).nbytes <= PLAN_BYTES[name]


def test_end_join_keeps_to_the_last_table():
    # a diagonal left at the end joins the last table only on a wire it
    # already spans or in a window with no block, and otherwise rides in its
    # window's block; the last tables of these two held 512 and 65536
    # entries when every leftover joined
    for name, entries in (("toffoli_n(11)", 128), ("qfa_gms(8)", 256)):
        tables = [a for kind, _, a in sim._plan(BUILDS[name]()).steps
                  if kind == "apply_scale"]
        assert tables[-1].size == entries, name


# Merges: pulses whose phase passes come out adjacent, with no other pass
# between them, share one table over the union of their wires.  After a
# full-register pulse every wire holds a pending H, which the next pulse's H
# cancels, so pulses on any wire sets follow it with no pass between.

def assert_phase_passes(circ, want, monkeypatch):
    counts = count_kernels(monkeypatch)
    sim.apply(circ, basis_state(circ.n_qubits, 0))
    assert counts["apply_scale"] == want
    monkeypatch.undo()


@pytest.mark.parametrize("sets", [
    [(1, 2, 3, 4, 5), (2, 3, 4), (3, 4)],
    [(0, 1, 2, 3), (2, 3, 4, 5), (4, 5, 6)],
    [(0, 1), (2, 3, 4), (5, 6)],
], ids=["nested", "overlapping", "disjoint"])
def test_merged_pulses_match_oracle(sets, monkeypatch):
    n = 7
    gates = [gms(range(n), PROFILES[0])]
    gates += [gms(w, PROFILES[i % 3]) for i, w in enumerate(sets, 1)]
    circ = Circuit(n, tuple(gates))
    assert_phase_passes(circ, 1, monkeypatch)
    assert_matches_oracle(circ, np.random.default_rng(len(sets[0])))


def test_merged_run_takes_folds_and_a_phase(monkeypatch):
    # a folded H RZ H sandwich and a PHASE between pulses stay in the run;
    # the PHASE rides on wire 0's pending H, which the third pulse folds
    n = 6
    circ = Circuit(n, (gms(range(n), PROFILES[1]), h(2), rz(2, 0.7), h(2),
                       global_phase(0.4), gms((1, 2, 3), PROFILES[2]),
                       rx(4, -0.9), gms((4, 5, 0), PROFILES[0])))
    folds = folded_wires(monkeypatch)
    assert_phase_passes(circ, 1, monkeypatch)
    assert folds == [{0, 2, 4}]
    assert_matches_oracle(circ, np.random.default_rng(6))


@pytest.mark.parametrize("between", [[cnot(1, 4)], [ry(2, 0.5)]],
                         ids=["cnot", "flushed_window"])
def test_pass_between_pulses_breaks_the_run(between, monkeypatch):
    # a CNOT pass, or the block pass of a window holding H RY H, between two
    # pulses: each pulse keeps a table of its own
    n = 6
    circ = pulses_between(n, [between])
    assert_phase_passes(circ, 2, monkeypatch)
    assert_matches_oracle(circ, np.random.default_rng(7))


def test_rz_mutant_inside_a_merged_run_fails(monkeypatch):
    # the RZ(0.1) sits in an H RZ H sandwich on a folded wire, so the
    # mutant's three pulses still share one table
    n = 5
    sandwich = [h(3), rz(3, 0.5), h(3)]
    good = Circuit(n, (gms(range(n), PROFILES[0]), *sandwich,
                       gms((1, 3, 4), PROFILES[1]), gms((0, 2), PROFILES[2])))
    gates = list(good.gates)
    gates.insert(3, rz(3, 0.1))
    bad = Circuit(n, tuple(gates))
    assert_phase_passes(bad, 1, monkeypatch)
    want = oracle_unitary(good)
    assert sim.equiv_on_ancilla(good, want, 1e-9).ok
    r = sim.equiv_on_ancilla(bad, want, 1e-9)
    assert not r.ok and r.failure == "mismatch" and r.max_deviation > 1e-2


# The plan: each Circuit is compiled once, on its first run, and the plan is
# kept on the circuit.

def calls_of(monkeypatch, name) -> list:
    """The calls of ``sim.<name>`` from now on."""
    calls = []
    real = getattr(sim, name)
    monkeypatch.setattr(sim, name, lambda *a: calls.append(a) or real(*a))
    return calls


def test_second_run_reuses_the_plan(monkeypatch):
    circ = qft_gms(8, Exponential())
    psi = random_state(np.random.default_rng(9), circ.n_qubits)
    first = sim.apply(circ, psi)
    compiles = calls_of(monkeypatch, "_compile")
    tables = calls_of(monkeypatch, "_phase_tables")
    again = sim.apply(circ, psi)
    assert compiles == [] and tables == []
    fresh = sim.apply(qft_gms(8, Exponential()), psi)
    assert len(compiles) == 1 and [len(records) for records, in tables] == [7]
    assert np.array_equal(again, fresh) and np.array_equal(again, first)


# The tables: the pass records each table's inputs, and the tables of one
# width are built in one sweep.

def oracle_phase_tables(tables):
    """``sim._phase_tables`` one table at a time, through the oracle."""
    return [one_table(wires, pairs, diag) for wires, pairs, diag in tables]


def test_swept_tables_match_the_one_table_oracle(monkeypatch):
    # the benchmark's circuits and seeded random ones: the plan with every
    # table built alone differs only in the tables, by a batched exp's
    # rounding; its blocks are bit for bit the same
    rng = random.Random(31)
    circuits = [cons.toffoli_n(7).generated, cons.fanin(9).generated,
                qft_gms(8, Exponential()), cons.toffoli_n(11).generated,
                qft_gms(16, Exponential()), qfa_gms(8, Exponential()),
                cons.phase_polynomial_identity(17, 0.7), cons.tdistill().generated]
    circuits += [random_circuit(rng, rng.randint(3, 8), 20) for _ in range(50)]
    for circuit in circuits:
        got = sim._compile(circuit)
        with monkeypatch.context() as m:
            m.setattr(sim, "_phase_tables", oracle_phase_tables)
            want = sim._compile(circuit)
        assert (got.passes, got.nbytes, got.moved) == (want.passes, want.nbytes, want.moved)
        assert len(got.steps) == len(want.steps)
        for (name, wires, a), (name2, wires2, a2) in zip(got.steps, want.steps):
            assert (name, wires) == (name2, wires2)
            if name == "apply_scale":
                assert a.shape == a2.shape
                assert np.max(np.abs(a - a2)) <= 1e-15
            elif name == "apply_block":
                assert np.array_equal(a, a2)
            else:
                assert a is a2 is None


def test_one_sweep_per_table_width(monkeypatch):
    # toffoli_n(7)'s fifteen tables are padded to one width, qft_gms(8)'s
    # seven to three
    for circuit, widths in ((cons.toffoli_n(7).generated, [6]),
                            (qft_gms(8, Exponential()), [6, 7, 8])):
        sweeps = calls_of(monkeypatch, "_sweep")
        plan = sim._compile(circuit)
        tables = [len(w) for name, w, _ in plan.steps if name == "apply_scale"]
        assert sorted(k for _, k in sweeps) == sorted(set(tables)) == widths
        assert sorted(len(records) for records, _ in sweeps) == sorted(
            tables.count(k) for k in widths)
        monkeypatch.undo()


def random_layout(rng, plan, extra):
    """Every wire of ``plan`` at a random distinct position of a register
    ``extra`` wires wider: the register cut into runs that no block's wires
    cross, shuffled among the extra wires, so each block's wires stay
    adjacent and in order, as ``_placed`` runs them."""
    inside = {q for name, wires, _ in plan.steps if name == "apply_block"
              for q in wires[1:]}
    runs = []
    for q in range(plan.n):
        if q in inside:
            runs[-1].append(q)
        else:
            runs.append([q])
    items = runs + [[None]] * extra
    rng.shuffle(items)
    order = [q for run in items for q in run]
    return {q: p for p, q in enumerate(order) if q is not None}


def test_placed_on_random_layouts():
    # the plan placed on a wider register whose other wires hold random
    # states acts as ``apply`` does, on the positions it was given; blocks
    # whose idle wires land on foreign wires, and blocks too near the top
    # to run their whole window, included: gates on a few wires are
    # dropped, so that a window's blocks may start below an idle wire
    rng, nrng = random.Random(41), np.random.default_rng(41)
    foreign = clipped = 0
    for _ in range(80):
        n, extra = rng.randint(2, 9), rng.randint(1, 3)
        idle = set(rng.sample(range(n), rng.randint(0, n // 2)))
        circ = Circuit(n, tuple(g for g in random_pulse_circuit(rng, n, 16).gates
                                if not idle & set(g.qubits)))
        plan = sim._plan(circ)
        at = random_layout(rng, plan, extra)
        width = n + extra
        psi = nrng.normal(size=1 << width) + 1j * nrng.normal(size=1 << width)
        got = psi.reshape(-1, 1).copy()
        sim._lay(sim._placed(plan.steps, at, width), got)
        # the register's wires first, in order, then the others
        others = sorted(set(range(width)) - set(at.values()))
        perm = [at[q] for q in range(n)] + others
        cols = psi.reshape((2,) * width).transpose(perm).reshape(1 << n, -1)
        want = np.stack([sim.apply(circ, col) for col in cols.T], axis=1)
        want = want.reshape((2,) * width).transpose(np.argsort(perm)).reshape(-1)
        assert np.max(np.abs(got[:, 0] - want)) < 1e-12
        for (name, wires, blk), (_, _, args) in zip(plan.steps,
                                                    sim._placed(plan.steps, at, width)):
            if name == "apply_block":
                foreign += bool(set(range(args[1], at[wires[0]])) & set(others))
                clipped += len(args[0]) < len(blk)
    assert foreign and clipped


def test_cached_run_passes_through_the_backend(monkeypatch):
    circ = qfa_gms(4, Exponential())
    st = basis_state(circ.n_qubits, 3).reshape(-1, 1)
    cold = sim._run(circ, st.copy())
    counts = count_kernels(monkeypatch)
    passes = sim._run(circ, st)
    assert passes == cold
    assert_kernels_match_passes(counts, passes)


def test_returned_passes_are_a_copy():
    spec = cons.toffoli_n(5)
    circ, ref = spec.generated, spec.act.matrix()
    st = basis_state(circ.n_qubits, 0).reshape(-1, 1)
    want = dict(sim._run(circ, st))
    sim._run(circ, st)["phase"] += 100
    sim.equiv_on_ancilla(circ, ref, 1e-9).passes.clear()
    assert sim._run(circ, st) == want
    assert sim.equiv_on_ancilla(circ, ref, 1e-9).passes == want


def test_stimulus_circuits_cold_and_cached():
    # the benchmark's stimulus_wide circuits against its numpy-only oracles:
    # a stale or wrong plan fails here before the benchmark's check
    oracles = load_bench("oracles")
    rng = np.random.default_rng(10)
    theta = 0.9
    tof = cons.toffoli_n(11).generated
    cases = (
        (tof, 11, lambda s: oracles.embed_zero_ancillas(
            oracles.permute(s, oracles.toffoli_dest(11)), tof.n_qubits - 11)),
        (qft_gms(16, Exponential()), 16, oracles.dft_bitreversed),
        (qfa_gms(8, Exponential()), 16,
         lambda s: oracles.permute(s, oracles.adder_dest(8))),
        (cons.phase_polynomial_identity(17, theta), 17,
         lambda s: oracles.hamming_phase(17, theta) * s),
        (cons.tdistill().generated, 15,
         lambda s: oracles.permute(s, oracles.tdistill_dest())),
    )
    for circ, width, oracle in cases:
        data = oracles.random_state(rng, width)
        psi = oracles.embed_zero_ancillas(data, circ.n_qubits - width)
        want = oracle(data)
        cold = sim.apply(circ, psi)
        cached = sim.apply(circ, psi)
        assert np.array_equal(cold, cached)
        assert oracles.phase_deviation(cached, want) < 1e-9
