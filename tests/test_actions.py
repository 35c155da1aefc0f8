"""References that act on a state, checked against the local-gate circuits
they replace: the circuits are the oracle for the oracles."""

import random
import tracemalloc

import numpy as np
import pytest

from conftest import basis_state
from gmsforge import constructions as cons
from gmsforge import fourier, gf2, sim
from gmsforge.circuit import Circuit, GuardError, cnot
from gmsforge.cli import table1_rows

EXACT = 1e-12


def _cnots(n, pairs):
    return Circuit(n, tuple(cnot(c, t) for c, t in pairs))


# Every spec at every width a test checks, with the reference circuit it
# was verified against before it was given by its action.
CASES = (
    [(f"fanout({n})", lambda n=n: cons.fanout(n, 0),
      lambda n=n: _cnots(n, [(0, t) for t in range(1, n)])) for n in range(2, 7)]
    + [("fanout(5, 2)", lambda: cons.fanout(5, 2),
        lambda: _cnots(5, [(2, t) for t in (0, 1, 3, 4)]))]
    + [(f"fanin({n})", lambda n=n: cons.fanin(n, 0),
        lambda n=n: _cnots(n, [(c, 0) for c in range(1, n)])) for n in range(2, 7)]
    + [("fanin(4, 2)", lambda: cons.fanin(4, 2),
        lambda: _cnots(4, [(c, 2) for c in (0, 1, 3)]))]
    + [("cnot_via_xx", cons.cnot_via_xx, lambda: _cnots(2, [(0, 1)]))]
    + [(f"cnot_via_4gms({n})", lambda n=n: cons.cnot_via_4gms(n, 0, n - 1),
        lambda n=n: _cnots(n, [(0, n - 1)])) for n in (3, 4)]
    + [("ccz_3gms", cons.ccz_3gms, lambda: cons.controlled_z_reference(3)),
       ("cccz_4gms", cons.cccz_4gms, lambda: cons.controlled_z_reference(4)),
       ("cccz_3gms", cons.cccz_3gms, lambda: cons.controlled_z_reference(4)),
       ("toffoli3_gms", cons.toffoli3_gms, lambda: cons.toffoli_reference(3)),
       ("toffoli4_7gms", cons.toffoli4_7gms, lambda: cons.toffoli_reference(4))]
    + [(f"toffoli_n({n})", lambda n=n: cons.toffoli_n(n),
        lambda n=n: cons.toffoli_reference(n)) for n in range(4, 9)]
    + [(f"qft_reference({n})", lambda n=n: fourier.qft_reference_spec(n),
        lambda n=n: fourier.qft_reference(n)) for n in range(1, 9)]
)


@pytest.mark.parametrize("make_spec,make_circuit",
                         [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_action_equals_reference_circuit(make_spec, make_circuit):
    want = sim.unitary_of(make_circuit())
    act = make_spec().act
    assert np.max(np.abs(act.matrix() - want)) <= EXACT
    assert np.max(np.abs(act(np.eye(len(want))) - want)) <= EXACT


def test_action_on_batches_of_states():
    rng = np.random.default_rng(3)
    for act in (cons.toffoli_n(6).act, cons.ccz_3gms().act,
                fourier.qft_reference_spec(6).act, cons.fanin(6).act):
        u = act.matrix()
        states = rng.normal(size=(len(u), 3)) + 1j * rng.normal(size=(len(u), 3))
        assert np.max(np.abs(act(states) - u @ states)) <= EXACT
        assert np.max(np.abs(act(states[:, 0]) - u @ states[:, 0])) <= EXACT


def test_tdistill_action_is_the_34_cnots():
    # the 15-qubit CNOT circuit is past the dense guard: run it on basis
    # states instead
    cnots = [(c, t) for c, ts in cons.TDISTILL_FANS for t in ts]
    assert len(cnots) == 34
    circuit = _cnots(15, cnots)
    dest = cons.tdistill().act.dest
    assert sorted(dest) == list(range(1 << 15))
    for x in random.Random(15).sample(range(1 << 15), 12) + [0, (1 << 15) - 1]:
        out = sim.apply(circuit, basis_state(15, x))
        assert abs(out[dest[x]] - 1) <= EXACT


def test_tdistill_action_is_the_fan_layers_linear_map():
    layers = [gf2.FanLayer(c, frozenset(ts)) for c, ts in cons.TDISTILL_FANS]
    m = gf2.linear_simulate(layers, 15)
    dest = cons.tdistill().act.dest

    def wires(index):  # bit q of the GF(2) vector is wire q
        return sum((index >> (14 - q) & 1) << q for q in range(15))

    for x in range(1 << 15):
        assert wires(int(dest[x])) == m.apply(wires(x))


def test_specs_build_no_action(monkeypatch):
    def forbidden(*args):
        raise AssertionError("an action was built")

    monkeypatch.setattr(cons, "_cnot_map", forbidden)
    monkeypatch.setattr(cons, "_toffoli_map", forbidden)
    monkeypatch.setattr(sim, "_spread", forbidden)  # the bit reversal
    table1_rows()
    for n in range(4, 13):
        cons.toffoli_n(n)
    cons.tdistill()
    cons.fanin(9)
    fourier.qft_reference_spec(8)


def test_index_map_matrix_memory():
    # zeros plus one scatter: no identity copy beside the reference
    act = cons.toffoli_n(10).act
    tracemalloc.start()
    try:
        u = act.matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.nbytes == 16 << 20
    assert peak <= 2 * u.nbytes


def test_action_matrix_is_guarded(monkeypatch):
    monkeypatch.setenv("GMSFORGE_MAX_DENSE_QUBITS", "5")
    with pytest.raises(GuardError, match=f"dense guard: {16 << 12} bytes asked"):
        cons.toffoli_n(6).act.matrix()
    with pytest.raises(GuardError):
        fourier.qft_reference_spec(6).act.matrix()
    with pytest.raises(GuardError):
        sim.AllOnesSign(6).matrix()


@pytest.mark.parametrize("d", range(1, 11))
def test_transform_rows_are_the_fft_action(d):
    # rows gathered from the table of roots against the FFT's action on the
    # basis: whole row blocks as a check reads them, a short last block, a
    # slice running past the end and a ragged step
    act, dim = sim.BitReversedIFFT(d), 1 << d
    want = act(np.eye(dim))
    step = max(1, sim.CHUNK >> d)
    slices = [slice(r, r + step) for r in range(0, dim, step)]
    slices += [slice(dim - 1, dim), slice(dim // 2, dim + 5), slice(dim + 1, dim + 3)]
    slices += [slice(r, r + 3) for r in range(0, dim, max(3, dim // 8))]
    for rows in slices:
        got = act[rows]
        assert got.shape == want[rows].shape and got.dtype == np.complex128
        assert np.max(np.abs(got - want[rows]), initial=0.0) <= 1e-15, rows
    assert act.shape == want.shape


def test_transform_matrix_is_its_full_slice(monkeypatch):
    for d in (1, 4, 7):
        act = sim.BitReversedIFFT(d)
        assert act.matrix().tobytes() == act[:].tobytes()
    monkeypatch.setenv("GMSFORGE_MAX_DENSE_QUBITS", "3")
    act = sim.BitReversedIFFT(4)
    with pytest.raises(GuardError, match=f"dense guard: {16 << 8} bytes asked"):
        act.matrix()
    assert act[:2].shape == (2, 16)  # a row block is no dense unitary
