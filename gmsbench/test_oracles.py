"""The benchmark's oracles agree with gmsforge at small widths and reject a
mutant (one RZ(0.1) appended on a data wire)."""

import numpy as np
import pytest

import oracles
from gmsforge import Exponential, rz, sim
from gmsforge import constructions as cons
from gmsforge import fourier

TOL = 1e-9


def _state(n, seed=7):
    return oracles.random_state(np.random.default_rng(seed), n)


def _agrees(circuit, state, want):
    """Deviation of the program's output from the oracle's, and of a
    mutant's output."""
    mutant = circuit.append(rz(0, 0.1))
    return (oracles.phase_deviation(sim.apply(circuit, state), want),
            oracles.phase_deviation(sim.apply(mutant, state), want))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_toffoli_with_ancillas(n):
    circuit = cons.toffoli_n(n).generated
    n_anc = circuit.n_qubits - n
    assert circuit.ancillas == frozenset(range(n, circuit.n_qubits))
    data = _state(n)
    want = oracles.embed_zero_ancillas(
        oracles.permute(data, oracles.toffoli_dest(n)), n_anc)
    good, bad = _agrees(circuit, oracles.embed_zero_ancillas(data, n_anc), want)
    assert good <= TOL < bad


@pytest.mark.parametrize("n", [3, 5, 7])
def test_toffoli_reference_unitary(n):
    want = np.eye(1 << n)[oracles.toffoli_dest(n)].T
    assert oracles.phase_deviation(
        sim.unitary_of(cons.toffoli_reference(n)), want) <= TOL
    assert oracles.phase_deviation(np.eye(1 << n), want) > TOL


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_bit_reversed_dft(n):
    state = _state(n)
    good, bad = _agrees(fourier.qft_gms(n, Exponential()), state,
                        oracles.dft_bitreversed(state))
    assert good <= TOL < bad
    assert oracles.phase_deviation(
        sim.unitary_of(fourier.qft_reference(n)), oracles.dft_matrix(n)) <= TOL


@pytest.mark.parametrize("n", [2, 3, 4])
def test_little_endian_adder(n):
    state = _state(2 * n)
    good, bad = _agrees(fourier.qfa_gms(n, Exponential()), state,
                        oracles.permute(state, oracles.adder_dest(n)))
    assert good <= TOL < bad


def test_adder_index_map_adds():
    # |a=3>|b=6> on 3-bit little-endian registers: wire j carries 2^j.
    def index(a, b, n=3):
        bits = [(a >> j) & 1 for j in range(n)] + [(b >> j) & 1 for j in range(n)]
        return sum(bit << (2 * n - 1 - w) for w, bit in enumerate(bits))
    assert oracles.adder_dest(3)[index(3, 6)] == index(3, 1)


@pytest.mark.parametrize("n", [2, 5, 9])
def test_hamming_weight_phase(n):
    theta = 0.7
    state = _state(n)
    good, bad = _agrees(cons.phase_polynomial_identity(n, theta), state,
                        oracles.hamming_phase(n, theta) * state)
    assert good <= TOL < bad


def test_tdistill_cnot_set():
    state = _state(15)
    good, bad = _agrees(cons.tdistill().generated, state,
                        oracles.permute(state, oracles.tdistill_dest()))
    assert good <= TOL < bad
    dropped = oracles.cnot_set_dest(15, oracles.TDISTILL_CNOTS[1:])
    assert oracles.phase_deviation(
        sim.apply(cons.tdistill().generated, state),
        oracles.permute(state, dropped)) > TOL
