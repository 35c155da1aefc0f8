import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import compose, expand_gms, gf2_mul, random_circuit
from gmsforge.circuit import (ArgumentError, Circuit, Exponential, Gate,
                              PerPair, PowerLawSum, SchemaError, Uniform, cnot,
                              deserialize, empty, global_phase, gms, h, rx,
                              serialize, xx)
from gmsforge.constructions import fanout, toffoli3_gms, toffoli_n
from gmsforge.gf2 import FanLayer, Gf2Matrix, linear_simulate
from gmsforge.sim import apply, unitary_of

PI = math.pi


def test_append_single_gate():
    c = empty(2).append(h(0))
    assert len(c.gates) == 1 and c.gates[0].kind == "H"


def test_append_preserves_order():
    base = empty(2)
    built = base
    target = fanout(2).generated
    for g in target.gates:
        built = built.append(g)
    assert built.gates == target.gates


def test_append_out_of_range():
    with pytest.raises(ValueError):
        empty(3).append(h(5))


def test_compose_identity_element():
    c = fanout(3).generated
    assert compose(c, empty(3)).gates == c.gates


def test_compose_with_inverse_is_identity():
    c = fanout(4).generated
    u = unitary_of(compose(c, c.inverse()))
    assert np.max(np.abs(u - np.eye(16))) < 1e-10


def test_compose_width_mismatch():
    with pytest.raises(ValueError):
        compose(empty(3), empty(4))


def test_inverse_cancels_random_circuits():
    rng = random.Random(19)
    for _ in range(20):
        c = random_circuit(rng, 4, 10)
        u = unitary_of(c.inverse()) @ unitary_of(c)
        assert np.max(np.abs(u - np.eye(16))) < 1e-10


def test_inverse_h_self():
    assert h(0).inverse() == h(0)


def test_inverse_xx_negates():
    assert xx(0, 1, 0.7).inverse() == xx(0, 1, -0.7)


def test_inverse_gms_simulates_to_conjugate_transpose():
    c = Circuit(3, (gms((0, 1, 2), Uniform(PI / 2)),))
    u = unitary_of(c)
    v = unitary_of(c.inverse())
    assert np.max(np.abs(v - u.conj().T)) < 1e-12


def test_inverse_involution_on_gate_lists():
    rng = random.Random(7)
    for _ in range(20):
        c = random_circuit(rng, 4, 12)
        # exponential profiles invert to explicit tables, so compare those
        # circuits semantically instead
        if any(g.kind == "GMS" and isinstance(g.profile, Exponential)
               for g in c.gates):
            u = unitary_of(c)
            v = unitary_of(c.inverse().inverse())
            assert np.max(np.abs(u - v)) < 1e-10
        else:
            assert c.inverse().inverse().gates == c.gates


def test_expand_gms_single_pair():
    c = expand_gms(Circuit(2, (gms((0, 1), Uniform(0.3)),)))
    assert c.gates == (xx(0, 1, 0.3),)


def test_expand_gms4_six_xx_same_unitary():
    c = Circuit(4, (gms(range(4), Uniform(0.9)),))
    expanded = expand_gms(c)
    assert sum(1 for g in expanded.gates if g.kind == "XX") == 6
    assert np.max(np.abs(unitary_of(c) - unitary_of(expanded))) < 1e-12


def test_expand_gms_pair_order_free():
    # XX factors commute: any pair ordering gives the same unitary
    rng = random.Random(3)
    c = Circuit(4, (gms(range(4), Uniform(1.1)),))
    base = unitary_of(expand_gms(c))
    pairs = list(expand_gms(c).gates)
    for _ in range(5):
        rng.shuffle(pairs)
        u = unitary_of(Circuit(4, tuple(pairs)))
        assert np.max(np.abs(u - base)) < 1e-12


def test_expand_gms_exponential_angles():
    c = expand_gms(Circuit(3, (gms((0, 1, 2), Exponential()),)))
    angles = {(g.qubits[0], g.qubits[1]): g.theta for g in c.gates}
    assert angles == {(0, 1): PI / 2, (0, 2): PI / 4, (1, 2): PI / 2}


def test_expand_gms_power_law_angles():
    prof = PowerLawSum(((0.5, 2.0), (-0.25, 1.0)), offset=1)
    c = expand_gms(Circuit(3, (gms((0, 2), prof),)))
    want = PI / (0.5 * 3.0**2) + PI / (-0.25 * 3.0)  # distance 2, offset 1
    assert c.gates[0] == xx(0, 2, want)


def test_gms_uniform_zero_is_identity():
    u = unitary_of(Circuit(3, (gms((0, 1, 2), Uniform(0.0)),)))
    assert np.max(np.abs(u - np.eye(8))) < 1e-12


def test_cost_fanout4():
    assert fanout(4).generated.cost().gms_pulses == 2


def test_cost_toffoli4():
    report = toffoli_n(4).generated.cost()
    assert (report.gms_pulses, report.qubits, report.ancillas) == (3, 5, 1)


def test_cost_empty():
    report = empty(2).cost()
    assert report.gms_pulses == 0 and report.local_entangling == 0
    assert report.single_qubit == 0 and report.entangling == 0


def test_cost_additive_under_compose():
    rng = random.Random(11)
    a = random_circuit(rng, 4, 9)
    b = random_circuit(rng, 4, 7)
    ca, cb, cc = a.cost(), b.cost(), compose(a, b).cost()
    assert cc.gms_pulses == ca.gms_pulses + cb.gms_pulses
    assert cc.local_entangling == ca.local_entangling + cb.local_entangling
    assert cc.single_qubit == ca.single_qubit + cb.single_qubit
    assert cc.qubits == 4


def test_gate_validation():
    refusals = [
        (lambda: Gate("SWAP", (0, 1)), "unknown gate kind 'SWAP'"),
        (lambda: cnot(1, 1), "gate qubits must be distinct"),
        (lambda: gms((0, 2, 0), Uniform(1.0)), "gate qubits must be distinct"),
        (lambda: h(-1), "negative qubit index"),
        (lambda: Gate("XX", (0, 1, 2), 0.5), r"XX takes 2 qubit\(s\), got 3"),
        (lambda: Gate("PHASE", (0,), 0.5), r"PHASE takes 0 qubit\(s\), got 1"),
        (lambda: rx(0, float("nan")), "angle must be finite"),
        (lambda: Gate("H", (0,), float("inf")), "angle must be finite"),
        (lambda: Gate("RZ", (0,)), "RZ requires an angle"),
        # an angle on H or CNOT would serialize a theta that reading rejects
        (lambda: Gate("H", (0,), 0.5), "H takes no angle"),
        (lambda: Gate("CNOT", (0, 1), 0.5), "CNOT takes no angle"),
        (lambda: Gate("RX", (0,), 0.5, Uniform(1.0)), "RX takes no profile"),
        (lambda: gms((0,), Uniform(1.0)), "GMS needs at least 2 participating qubits"),
        (lambda: Gate("GMS", (0, 1)), "GMS requires a coupling profile"),
        (lambda: gms((0, 1, 2), PerPair(((0, 1, 0.5),))), "cover exactly"),  # missing
        (lambda: gms((0, 1), PerPair(((0, 1, 0.5), (1, 2, 0.5)))), "cover exactly"),  # extra
        (lambda: gms((0, 1), PerPair(((0, 1, 0.5), (1, 1, 0.5)))), "cover exactly"),  # (i, i)
        (lambda: PerPair(((0, 1, 0.5), (1, 0, 0.5))), "duplicate pair in coupling table"),
        (lambda: PerPair(((0, 1, 0.5), (1, 2, float("nan")))),
         "coupling angles must be finite, not nan"),
        # a wire past the register given to the constructor names the first
        # offending gate, not a later one
        (lambda: Circuit(2, (h(0), global_phase(0.5), cnot(0, 2), h(3))),
         r"gate CNOT on \(0, 2\) exceeds register of 2"),
        (lambda: empty(2).append(h(2)), r"gate H on \(2,\) exceeds register of 2"),
        (lambda: Circuit(0), "circuit needs at least one qubit"),
        (lambda: h(0).pair_angles(), "pair_angles is defined for GMS gates only"),
        (lambda: Gf2Matrix(2, (1,)), "row count does not match dimension"),
        (lambda: Gf2Matrix(2, (1, 4)), "row has bits outside the matrix width"),
        (lambda: gf2_mul(Gf2Matrix.identity(2), Gf2Matrix.identity(3)), "dimension mismatch"),
        (lambda: FanLayer(0, frozenset({0, 1})), "fan control cannot be one of its targets"),
        (lambda: FanLayer(0, frozenset()), "fan layer needs at least one target"),
        (lambda: linear_simulate([(0, 2)], 2), r"bad CNOT \(0, 2\) on 2 wires"),
        (lambda: apply(empty(2), np.zeros(3)), r"state has shape \(3,\), expected \(4,\)"),
    ]
    for build, message in refusals:
        with pytest.raises(ValueError, match=message):
            build()
    for bad in (float("nan"), float("inf"), -float("inf")):
        for build in (Uniform, lambda x: PerPair(((0, 1, x),)),
                      lambda x: PowerLawSum(((0.4, x),)),
                      lambda x: PowerLawSum(((x, 2.5),))):
            with pytest.raises(ArgumentError, match="finite"):
                build(bad)
    # a non-finite coupling has one wording, as a uniform angle or a table
    for build in (Uniform, lambda x: PerPair(((0, 1, 0.5), (0, 2, x)))):
        with pytest.raises(ArgumentError, match="^coupling angles must be finite, not -inf$"):
            build(-float("inf"))
    with pytest.raises(SchemaError):
        deserialize('{"n_qubits": 3, "gates": '
                    '[{"kind": "CNOT", "qubits": [0, 1, 2]}]}')


def test_per_pair_keeps_canonical_tables_and_sorts_the_rest():
    # a canonical table (a tuple of float rows, i < j, keys ascending) is
    # kept as it is; any other form is stored sorted, with float angles, and
    # refused as before
    canon = ((0, 1, 0.5), (0, 2, -0.0), (1, 2, 1.5))
    assert PerPair(canon).table is canon
    for other in (canon[::-1], ((1, 0, 0.5), (0, 2, -0.0), (2, 1, 1.5)),
                  ((0, 2, -0.0), (0, 1, 0.5), (1, 2, 1.5)), list(canon),
                  tuple(map(list, canon)), ((0, 1, 0.5), (0, 2, -0.0), (1, 2, np.float64(1.5)))):
        table = PerPair(other).table
        assert repr(table) == repr(canon) and type(table[2][2]) is float
    assert repr(PerPair(((0, 1, 1), (0, 2, 0))).table) == "((0, 1, 1.0), (0, 2, 0.0))"
    for dup in (((0, 1, 0.5), (0, 1, 0.7)), ((0, 1, 0.5), (0, 2, 0.1), (0, 2, 0.1))):
        with pytest.raises(ValueError, match="duplicate pair in coupling table"):
            PerPair(dup)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ArgumentError, match="finite"):
            PerPair(((0, 1, 0.5), (0, 2, bad)))


def test_per_pair_gate_refuses_a_table_that_misses_a_pair():
    # one row per pair, but a row is not a pair of the pulse: it names a wire
    # outside it, in either column, or a wire twice (PerPair keeps an (i, i)
    # row as it is), so one pair of the pulse has no row
    for wires, table in (((0, 1, 2), ((0, 1, 0.5), (0, 2, 0.5), (0, 3, 0.5))),
                         ((1, 2, 3), ((0, 1, 0.5), (1, 2, 0.5), (1, 3, 0.5))),
                         ((0, 1, 2), ((0, 1, 0.5), (0, 2, 0.5), (1, 1, 0.5))),
                         ((0, 1, 2), ((0, 0, 0.5), (0, 1, 0.5), (0, 2, 0.5)))):
        with pytest.raises(ValueError, match="cover exactly the participating pairs"):
            gms(wires, PerPair(table))


def test_per_pair_angle_lookup():
    prof = PerPair(((7, 3, 2.0), (1, 7, 1.0), (3, 1, 0.5)))
    assert [prof.angle(1, 3), prof.angle(7, 1), prof.angle(3, 7)] == [0.5, 1.0, 2.0]
    for i, j in ((1, 2), (0, 1), (7, 8)):
        with pytest.raises(ValueError, match="not in coupling table"):
            prof.angle(i, j)
    wires = (9, 2, 5, 0)
    table = tuple((a, b, float(10 * a + b)) for k, a in enumerate(wires) for b in wires[k + 1:])
    want = {frozenset((a, b)): chi for a, b, chi in table}
    got = gms(wires, PerPair(table)).pair_angles()
    assert [(i, j) for i, j, _ in got] == [(0, 2), (0, 5), (0, 9), (2, 5), (2, 9), (5, 9)]
    assert all(chi == want[frozenset((i, j))] for i, j, chi in got)


def test_ancilla_validation():
    with pytest.raises(ValueError):
        Circuit(3, (), frozenset({3}))


# -- serialization ----------------------------------------------------------

def test_roundtrip_toffoli3():
    c = toffoli3_gms().generated
    assert deserialize(serialize(c)).gates == c.gates


def test_roundtrip_empty():
    c = empty(4, ancillas=(3,))
    back = deserialize(serialize(c))
    assert back.n_qubits == 4 and back.ancillas == frozenset({3})
    assert back.gates == ()


def test_roundtrip_exact_angles():
    rng = random.Random(5)
    c = random_circuit(rng, 5, 40)
    back = deserialize(serialize(c))
    for g, g2 in zip(c.gates, back.gates):
        assert g == g2  # bitwise angle equality via repr round-trip


def test_roundtrip_all_profiles():
    c = Circuit(4, (
        gms((0, 1), Uniform(0.1)),
        gms((0, 2, 3), Exponential()),
        gms((1, 2), PerPair(((1, 2, -0.25),))),
        gms((0, 1, 2, 3), PowerLawSum(((0.4, 2.5), (-0.5, 3.4)), 1)),
    ))
    assert deserialize(serialize(c)).gates == c.gates


def test_malformed_profile_kind_names_field():
    text = """{"n_qubits": 2, "ancillas": [], "gates": [
        {"kind": "GMS", "qubits": [0, 1], "profile": {"kind": "bogus"}}]}"""
    with pytest.raises(SchemaError) as err:
        deserialize(text)
    assert "gates[0].profile.kind" in str(err.value)


def test_malformed_json_reports_line():
    with pytest.raises(SchemaError) as err:
        deserialize("{nope}")
    assert "line" in str(err.value)


def test_missing_theta_reports_field():
    text = '{"n_qubits": 1, "ancillas": [], "gates": [{"kind": "RX", "qubits": [0]}]}'
    with pytest.raises(SchemaError) as err:
        deserialize(text)
    assert "gates[0].theta" in str(err.value)


def _one_gate(gate, n=3):
    return json.dumps({"n_qubits": n, "gates": [gate]})


@pytest.mark.parametrize("text,path", [
    (json.dumps({"n_qubits": True, "gates": []}), "n_qubits"),
    (_one_gate({"kind": "H", "qubits": [True]}), "gates[0].qubits[0]"),
    (_one_gate({"kind": "GMS", "qubits": [0, 1], "profile": {
        "kind": "per_pair", "table": [[0.0, 1.7, 0.3]]}}), "gates[0].profile.table[0][0]"),
    (_one_gate({"kind": "GMS", "qubits": [0, 1], "profile": {
        "kind": "power_law", "terms": [[0.4, 2.5]], "offset": True}}), "gates[0].profile.offset"),
    (_one_gate({"kind": "H", "qubits": [0], "theta": 0.5}), "gates[0].theta"),
    (_one_gate({"kind": "RX", "qubits": [0], "theta": 0.5,
                "profile": {"kind": "exponential"}}), "gates[0].profile"),
    (_one_gate({"kind": "GMS", "qubits": [0, 1], "profile": {
        "kind": "per_pair", "table": [[0, 1, math.nan]]}}), "gates[0].profile"),
    ("[]", "$"),
    (json.dumps({"n_qubits": 2, "gates": {}}), "gates"),
    (json.dumps({"n_qubits": 2, "gates": [1]}), "gates[0]"),
    (_one_gate({"kind": "H", "qubits": 0}), "gates[0].qubits"),
    (_one_gate({"kind": "GMS", "qubits": [0, 1], "profile": 1}), "gates[0].profile"),
    (_one_gate({"kind": "GMS", "qubits": [0, 1], "profile": {
        "kind": "per_pair", "table": [[0, 1]]}}), "gates[0].profile.table"),
    (_one_gate({"kind": "GMS", "qubits": [0, 1], "profile": {
        "kind": "power_law", "terms": [[0.4, 2.5]], "offset": 2}}), "gates[0].profile"),
    (json.dumps({"n_qubits": 2, "ancillas": [2], "gates": []}), "$"),
    (_one_gate({"kind": "H", "qubits": [3]}), "$"),
    (_one_gate({"kind": "GMS", "qubits": [0, 1, 2], "profile": {
        "kind": "per_pair", "table": [[0, 1, 0.5], [0, 2, 0.5], [1, 1, 0.5]]}}), "gates[0]"),
], ids=["bool-n_qubits", "bool-qubit", "float-pair-index", "bool-offset",
        "theta-on-H", "profile-on-RX", "nan-coupling", "top-level-list",
        "gates-not-list", "gate-not-object", "qubits-not-list", "profile-not-object",
        "short-pair-row", "offset-2", "ancilla-out-of-range", "gate-beyond-register",
        "self-pair-row"])
def test_strict_schema_names_field(text, path):
    with pytest.raises(SchemaError) as err:
        deserialize(text)
    assert err.value.path == path


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), n_gates=st.integers(0, 12))
def test_roundtrip_random_circuits(seed, n, n_gates):
    c = random_circuit(random.Random(seed), n, n_gates)
    assert deserialize(serialize(c)) == c


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), n_gates=st.integers(1, 12),
       pick=st.integers(0, 10**6), bad=st.sampled_from([True, False, 1.0, "0", None]))
def test_corrupt_qubit_index_names_field(seed, n, n_gates, pick, bad):
    doc = json.loads(serialize(random_circuit(random.Random(seed), n, n_gates)))
    slots = [(k, i) for k, g in enumerate(doc["gates"]) for i in range(len(g["qubits"]))]
    k, i = slots[pick % len(slots)]
    doc["gates"][k]["qubits"][i] = bad
    with pytest.raises(SchemaError) as err:
        deserialize(json.dumps(doc))
    assert err.value.path == f"gates[{k}].qubits[{i}]"
