import argparse
import functools
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gmsforge import cli, fourier, sim
from gmsforge import constructions as cons
from gmsforge.circuit import (Exponential, Gate, GuardError, PowerLawSum, deserialize,
                              rx, rz, serialize)
from gmsforge.constructions import fanin, fanout, toffoli_n


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_fanout_matches_builder(capsys):
    code, out, _ = run(capsys, "synth", "fanout", "--n", "4")
    assert code == 0
    assert deserialize(out).gates == fanout(4).generated.gates


def test_synth_unknown_name_exit2(capsys):
    code, _, err = run(capsys, "synth", "definitely-not-a-thing")
    assert code == 2
    assert "fanout" in err  # lists valid names


def test_synth_deterministic(capsys):
    _, first, _ = run(capsys, "synth", "toffoli", "--n", "6")
    _, second, _ = run(capsys, "synth", "toffoli", "--n", "6")
    assert first == second


def test_synth_max_gms_only(capsys):
    code, out, _ = run(capsys, "synth", "fanout", "--n", "4", "--max-gms-only")
    circ = deserialize(out)
    assert code == 0
    assert all(len(g.qubits) == 4 for g in circ.gates if g.kind == "GMS")


def test_verify_pass(tmp_path, capsys):
    path = tmp_path / "f4.json"
    run(capsys, "synth", "fanout", "--n", "4", "--out", str(path))
    code, out, _ = run(capsys, "verify", str(path), "--against", "fanout", "--n", "4")
    assert code == 0 and out.startswith("PASS")


def test_verify_fail_exit1(tmp_path, capsys):
    path = tmp_path / "f4.json"
    run(capsys, "synth", "fanout", "--n", "4", "--out", str(path))
    code, out, _ = run(capsys, "verify", str(path), "--against", "fanin", "--n", "4")
    assert code == 1 and out.startswith("FAIL")


def test_verify_ancilla_contract(tmp_path, capsys):
    path = tmp_path / "t6.json"
    run(capsys, "synth", "toffoli", "--n", "6", "--out", str(path))
    code, out, _ = run(capsys, "verify", str(path), "--against", "toffoli", "--n", "6")
    assert code == 0 and out.startswith("PASS")


def test_verify_full_width_file_reference(tmp_path, capsys):
    # an ancilla circuit against a file as wide as its whole register
    path = tmp_path / "t5.json"
    run(capsys, "synth", "toffoli", "--n", "5", "--out", str(path))
    code, out, _ = run(capsys, "verify", str(path), "--against", str(path))
    assert code == 0 and out.startswith("PASS")


def test_verify_width_mismatch_exit2(tmp_path, capsys):
    path = tmp_path / "f4.json"
    run(capsys, "synth", "fanout", "--n", "4", "--out", str(path))
    code, out, err = run(capsys, "verify", str(path), "--against", "fanout", "--n", "3")
    assert code == 2 and out == "" and "data register" in err


def test_verify_unknown_target_exit2(tmp_path, capsys):
    path = tmp_path / "f4.json"
    run(capsys, "synth", "fanout", "--n", "4", "--out", str(path))
    code, _, err = run(capsys, "verify", str(path), "--against", "no-such-thing")
    assert code == 2 and "fanout" in err


def test_construction_names_win_over_files(tmp_path, capsys, monkeypatch):
    # a file named like a construction does not shadow it
    (tmp_path / "fanout").write_text(serialize(fanin(4).generated) + "\n")
    monkeypatch.chdir(tmp_path)
    run(capsys, "synth", "fanout", "--n", "4", "--out", "f4.json")
    code, out, _ = run(capsys, "verify", "f4.json", "--against", "fanout", "--n", "4")
    assert code == 0 and out.startswith("PASS")
    code, out, _ = run(capsys, "count", "fanout", "--n", "4", "--json")
    assert code == 0 and json.loads(out) == fanout(4).generated.cost().as_dict()


def test_verify_rejects_max_gms_only(tmp_path, capsys):
    path = tmp_path / "t5.json"
    run(capsys, "synth", "toffoli", "--n", "5", "--out", str(path))
    code, out, err = run(capsys, "verify", str(path), "--against", "toffoli",
                         "--n", "5", "--max-gms-only")
    assert code == 2 and out == "" and "--max-gms-only" in err


def test_verify_json_reports_phase_leakage_failure(tmp_path, capsys):
    t5, f4 = tmp_path / "t5.json", tmp_path / "f4.json"
    run(capsys, "synth", "toffoli", "--n", "5", "--out", str(t5))
    run(capsys, "synth", "fanout", "--n", "4", "--out", str(f4))
    leaky = tmp_path / "leaky.json"
    anc = min(toffoli_n(5).generated.ancillas)
    leaky.write_text(serialize(toffoli_n(5).generated.append(rx(anc, math.pi))))

    def check(path, *against):
        code, out, _ = run(capsys, "verify", str(path), "--against", *against, "--json")
        text, doc = out.splitlines()
        return code, text, json.loads(doc)["checks"][0]

    code, text, c = check(t5, "toffoli", "--n", "5")
    assert code == 0 and c["outcome"] == "PASS" and c["failure"] is None
    real, imag = c["phase"]
    assert text.startswith(f"PASS phase={real:+.9f}{imag:+.9f}j")
    assert abs(abs(complex(real, imag)) - 1) < 1e-12 and 0 <= c["leakage"] < 1e-9
    assert f"max_deviation={c['deviation']:.3e}" in text

    code, text, c = check(f4, "fanin", "--n", "4")
    assert code == 1 and c["outcome"] == "FAIL" and c["failure"] == "mismatch"
    assert text.startswith("FAIL (mismatch)") and c["leakage"] == 0.0
    assert c["deviation"] > 0.1

    code, text, c = check(leaky, "toffoli", "--n", "5")
    assert code == 1 and c["failure"] == "leakage" and c["leakage"] > 0.9
    assert text.startswith("FAIL (leakage)")


def test_verify_json_reports_how_the_check_ran(tmp_path, capsys):
    t5, f5 = tmp_path / "t5.json", tmp_path / "f5.json"
    run(capsys, "synth", "toffoli", "--n", "5", "--out", str(t5))
    run(capsys, "synth", "fanin", "--n", "5", "--out", str(f5))
    # fanin-5's two pulses meet the state with no pass between them and
    # share one phase pass; each of toffoli-5's nine pulses takes its own
    # a permutation is compared in place and holds no reference bytes; a
    # circuit file's unitary holds 16 bytes an entry.  The columns run on
    # the moved wires only: toffoli-5's bottom three, fanin-5's target
    cases = (((t5, "toffoli", "--n", "5"), "ancilla", "oracle", [4, 5, 6], 3 + 5, 9, 0),
             ((f5, "fanin", "--n", "5"), "dense", "oracle", [0], 1 + 5, 1, 0),
             ((t5, str(t5)), "dense", "circuit", [4, 5, 6], 3 + 7, 9, 16 << 14))
    for (path, *against), method, how, moved, width, phase, ref_bytes in cases:
        _, plain, _ = run(capsys, "verify", str(path), "--against", *against)
        code, out, _ = run(capsys, "verify", str(path), "--against", *against, "--json")
        text, doc = out.splitlines()
        manifest = json.loads(doc)
        c = manifest["checks"][0]
        assert code == 0 and plain == text + "\n"
        # reading the file is timed from the command's start
        assert 0 <= c["read_s"] <= manifest["wall_time_s"]
        assert c["method"] == method and c["reference"] == how
        assert c["moved_wires"] == moved and c["columns_bytes"] == 16 << width
        assert 0 <= c["reference_s"] and 0 <= c["check_s"]
        # the circuit is compiled inside the check
        assert 0 <= c["compile_s"] <= c["check_s"]
        assert c["reference_bytes"] == ref_bytes
        # the passes _run made over the columns, one phase pass per run of
        # adjacent pulses, and the bytes of the plan's tables and blocks
        passes = c["passes"]
        assert list(passes) == ["block", "phase", "cnot"]
        assert passes["phase"] == phase
        assert passes["block"] > 0 and passes["cnot"] == 0
        steps = sim._plan(deserialize(path.read_text())).steps
        assert c["plan_bytes"] == sum(a.nbytes for _, _, a in steps if a is not None) > 0
    # the transform is no permutation, but it is held as an action too: the
    # check makes its rows as it reads them, and no reference matrix is held
    q3 = tmp_path / "q3.json"
    run(capsys, "synth", "qft-gms", "--n", "3", "--out", str(q3))
    code, out, _ = run(capsys, "verify", str(q3), "--against", "qft-ref", "--n", "3", "--json")
    c = json.loads(out.splitlines()[1])["checks"][0]
    assert code == 0 and c["reference_bytes"] == 0


def test_verify_toffoli_simulates_no_reference_circuit(tmp_path, capsys, monkeypatch):
    path = tmp_path / "t5.json"
    run(capsys, "synth", "toffoli", "--n", "5", "--out", str(path))

    def forbidden(*args):
        raise AssertionError("a reference circuit was built or simulated")

    monkeypatch.setattr(cons, "toffoli_reference", forbidden)
    monkeypatch.setattr(cons, "controlled_z_reference", forbidden)
    monkeypatch.setattr(cli, "unitary_of", forbidden)
    # nor is the reference made dense: the columns are the one dense array
    monkeypatch.setattr(sim.IndexMap, "matrix", forbidden)
    dense, zeros = [], sim._dense_zeros

    def columns_only(n, d):
        dense.append((n, d))
        assert len(dense) == 1, "a dense array beside the columns"
        return zeros(n, d)

    monkeypatch.setattr(sim, "_dense_zeros", columns_only)
    code, out, _ = run(capsys, "verify", str(path), "--against", "toffoli", "--n", "5")
    assert code == 0 and out.startswith("PASS") and dense == [(3, 5)]


def test_verify_toffoli_11(tmp_path, capsys):
    # 16 qubits, past the guard on the whole register, but 8 moved wires:
    # 2^8 x 2^11 columns.  An RZ(0.1) on a data wire is a mismatch, an
    # RX(pi) on the last ancilla leaks
    circuit = toffoli_n(11).generated
    last = max(circuit.ancillas)
    for variant, code, verdict in (
            (circuit, 0, "PASS"), (circuit.append(rz(3, 0.1)), 1, "FAIL (mismatch)"),
            (circuit.append(rx(last, math.pi)), 1, "FAIL (leakage)")):
        path = tmp_path / "t11.json"
        path.write_text(serialize(variant))
        got, out, _ = run(capsys, "verify", str(path), "--against", "toffoli", "--n", "11")
        assert got == code and out.startswith(verdict)


def test_verify_permutation_holds_only_the_columns(tmp_path, capsys):
    # fanin-10's columns are 16 MiB; the dense reference was 16 MiB more.
    # Beside the columns the kernels' scratch buffer and the check's
    # temporaries are one row block each, CHUNK complex entries
    path = tmp_path / "f10.json"
    run(capsys, "synth", "fanin", "--n", "10", "--out", str(path))
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "verify", str(path), "--against", "fanin", "--n", "10")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.startswith("PASS")
    assert peak <= (16 << 20) + 2 * 16 * sim.CHUNK


def test_verify_transform_holds_no_reference_matrix(tmp_path, capsys, monkeypatch):
    # qft-gms-10 moves every wire: its columns are 16 MiB, and the dense
    # transform was 16 MiB more.  The check reads the transform's rows one
    # block at a time, made as they are read, and never asks for matrix()
    path = tmp_path / "q10.json"
    run(capsys, "synth", "qft-gms", "--n", "10", "--out", str(path))
    monkeypatch.setattr(sim.BitReversedIFFT, "matrix",
                        lambda self: pytest.fail("the reference was made dense"))
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "verify", str(path), "--against", "qft-ref", "--n", "10")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.startswith("PASS")
    assert peak < (16 << 20) + (4 << 20)


@pytest.mark.parametrize("against, synth, n", [("toffoli", "toffoli", 5),
                                               ("fanin", "fanin", 5),
                                               ("qft-ref", "qft-gms", 3)])
def test_verify_against_a_construction_builds_no_gate(tmp_path, capsys, monkeypatch,
                                                      against, synth, n):
    # the check reads the spec's action alone: beyond the file's own gates,
    # which deserialize checks, no gate is built, checked or derived, and
    # the Toffoli chain's unit templates are not built either.  A bad --n
    # is still refused before any check
    path = tmp_path / "c.json"
    run(capsys, "synth", synth, "--n", str(n), "--out", str(path))
    in_file = len(deserialize(path.read_text()).gates)
    cons._unit_gates.cache_clear()
    built, post = [], Gate.__post_init__

    def counted(self):
        built.append(self)
        post(self)

    monkeypatch.setattr(Gate, "__post_init__", counted)
    monkeypatch.setattr(cons, "_derived", lambda *a, **k: pytest.fail("a gate was derived"))
    code, out, _ = run(capsys, "verify", str(path), "--against", against, "--n", str(n))
    assert code == 0 and out.startswith("PASS") and len(built) == in_file
    code, out, err = run(capsys, "verify", str(path), "--against", against, "--n", "0")
    assert code == 2 and out == "" and "n >=" in err


def test_verify_json_reports_the_bytes_each_pass_ran_over(tmp_path, capsys):
    # qft-gms-8 moves one new wire per block, bottom up: each pass runs on
    # the wires moved up to it, 16 * 2^(m + 8) bytes for m of them
    path = tmp_path / "q8.json"
    run(capsys, "synth", "qft-gms", "--n", "8", "--out", str(path))
    code, out, _ = run(capsys, "verify", str(path), "--against", "qft-ref", "--n", "8",
                       "--json")
    c = json.loads(out.splitlines()[1])["checks"][0]
    moved, want = set(), 0
    for name, wires, _ in sim._plan(deserialize(path.read_text())).steps:
        if name != "apply_scale":
            moved.update(wires)
        want += 16 << (len(moved) + 8)
    assert code == 0 and c["pass_bytes"] == want
    assert c["pass_bytes"] < sum(c["passes"].values()) * c["columns_bytes"]


def test_failing_transform_checks_read_their_phase_at_0_0(tmp_path, capsys):
    # the transform's pivot is V[0, 0] = 2^(-d/2): a failing check reports
    # u(0, 0) / |u(0, 0)| whatever the rounding of V's other entries
    for n in range(2, 7):
        circuit = fourier.qft_gms(n, Exponential())
        for q in range(n):
            mutant = circuit.append(rz(q, 0.1))
            path = tmp_path / "m.json"
            path.write_text(serialize(mutant))
            code, out, _ = run(capsys, "verify", str(path), "--against", "qft-ref",
                               "--n", str(n), "--json")
            c = json.loads(out.splitlines()[1])["checks"][0]
            u = sim.unitary_of(mutant)[0, 0]
            assert code == 1 and c["failure"] == "mismatch"
            assert abs(complex(*c["phase"]) - u / abs(u)) <= 1e-15


def test_python_m_gmsforge(tmp_path, capsys):
    path = tmp_path / "t5.json"
    run(capsys, "synth", "toffoli", "--n", "5", "--out", str(path))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "gmsforge", "verify", str(path),
                           "--against", "toffoli", "--n", "5"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout.startswith("PASS"), proc.stderr


def test_verify_guard_exit3(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GMSFORGE_MAX_DENSE_QUBITS", raising=False)
    path = tmp_path / "q13.json"
    run(capsys, "synth", "qft-gms", "--n", "13", "--out", str(path))
    code, _, err = run(capsys, "verify", str(path), "--against", "qft-ref", "--n", "13")
    assert code == 3 and "guard" in err


def test_verify_ancilla_columns_guard_exit3(tmp_path, capsys, monkeypatch):
    # Toffoli-5 runs on 7 qubits, 3 of them moved: 2^3 x 2^5 columns pass a
    # 4-qubit guard's 2^8 entries, a 3-qubit guard's 2^6 do not
    path = tmp_path / "t5.json"
    run(capsys, "synth", "toffoli", "--n", "5", "--out", str(path))
    monkeypatch.setenv("GMSFORGE_MAX_DENSE_QUBITS", "4")
    code, out, _ = run(capsys, "verify", str(path), "--against", "toffoli", "--n", "5")
    assert code == 0 and out.startswith("PASS")
    monkeypatch.setenv("GMSFORGE_MAX_DENSE_QUBITS", "3")
    code, out, err = run(capsys, "verify", str(path), "--against", "toffoli", "--n", "5")
    assert code == 3 and out == ""
    assert "guard" in err and str(16 << 8) in err and str(16 << 6) in err


def test_verify_emit_unitary(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cx.json"
    run(capsys, "synth", "cnot-xx", "--out", str(path))
    dump = tmp_path / "u.csv"
    code, _, _ = run(capsys, "verify", str(path), "--against", "cnot-xx",
                     "--emit-unitary", str(dump))
    assert code == 0
    rows = dump.read_text().strip().split("\n")
    assert len(rows) == 4 and len(rows[0].split(",")) == 8  # re,im per entry
    path = tmp_path / "f7.json"
    run(capsys, "synth", "fanout", "--n", "7", "--out", str(path))
    dump.unlink()
    monkeypatch.setattr(cli, "_resolve", lambda *a: pytest.fail("reference built"))
    monkeypatch.setattr(cli, "equiv_on_ancilla", lambda *a: pytest.fail("check ran"))
    for extra in ((), ("--json",)):
        # refused before the reference is built or the check runs
        code, out, err = run(capsys, "verify", str(path), "--against", "fanout", "--n", "7",
                             "--emit-unitary", str(dump), *extra)
        assert code == 3 and out == ""
        assert "dump guard: 7 qubits asked, limit is 6 qubits" in err
        assert not dump.exists()


def test_verify_stopped_before_its_check_writes_no_csv(tmp_path, capsys, monkeypatch):
    # --emit-unitary is tried without being made, and written only after
    # the check: a run that stops earlier leaves a new path missing and an
    # existing file with its bytes
    path = tmp_path / "cx.json"
    run(capsys, "synth", "cnot-xx", "--out", str(path))
    old = tmp_path / "old.csv"
    old.write_bytes(b"1,0\n")
    stops = ((("--against", "nosuch"), None, 2),
             (("--against", "fanout", "--n", "3"), None, 2),  # a reference 3 wires wide
             (("--against", "cnot-xx"), "1", 3))  # the dense guard at 1 qubit
    for against, qubits, want in stops:
        if qubits:
            monkeypatch.setenv("GMSFORGE_MAX_DENSE_QUBITS", qubits)
        for csv in (tmp_path / "new.csv", old):
            code, out, _ = run(capsys, "verify", str(path), *against,
                               "--emit-unitary", str(csv))
            assert code == want and out == ""
        assert not (tmp_path / "new.csv").exists() and old.read_bytes() == b"1,0\n"
    # a file whose directory is missing is refused before the check runs
    monkeypatch.setattr(cli, "equiv_on_ancilla", lambda *a: pytest.fail("check ran"))
    missing = tmp_path / "nosuch" / "u.csv"
    code, out, err = run(capsys, "verify", str(path), "--against", "cnot-xx",
                         "--emit-unitary", str(missing))
    assert code == 2 and out == "" and str(missing) in err
    assert not missing.parent.exists()


def test_verify_qft_roundtrip(tmp_path, capsys):
    # pulse-profile tables survive the JSON round trip through the CLI
    path = tmp_path / "q4.json"
    run(capsys, "synth", "qft-gms", "--n", "4", "--out", str(path))
    code, out, _ = run(capsys, "verify", str(path), "--against", "qft-ref", "--n", "4")
    assert code == 0 and out.startswith("PASS")
    code, out, _ = run(capsys, "synth", "qft-gms", "--n", "4", "--profile", "power-law",
                       "--terms", "0.4:2.5,-0.5:3.4", "--offset", "1")
    want = fourier.qft_gms(4, PowerLawSum(((0.4, 2.5), (-0.5, 3.4)), 1))
    assert code == 0 and deserialize(out) == want


def test_verify_tol_must_be_finite_and_positive(tmp_path, capsys):
    path = tmp_path / "f4.json"
    run(capsys, "synth", "fanout", "--n", "4", "--out", str(path))
    for tol in ("inf", "-1", "nan", "0", "x"):
        code, out, err = run(capsys, "verify", str(path), "--against", "fanin",
                             "--n", "4", "--tol", tol)
        assert code == 2 and out == "" and "--tol" in err
    code, out, _ = run(capsys, "verify", str(path), "--against", "fanout", "--n", "4",
                       "--tol", "1e-6")
    assert code == 0 and out.startswith("PASS")


def test_count_by_name(capsys):
    code, out, _ = run(capsys, "count", "tdistill")
    assert code == 0 and "gms_pulses=10" in out and "qubits=15" in out


def test_count_from_file(tmp_path, capsys):
    path = tmp_path / "f5.json"
    run(capsys, "synth", "fanin", "--n", "5", "--out", str(path))
    code, out, _ = run(capsys, "count", str(path))
    assert code == 0 and "gms_pulses=2" in out


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "toffoli", "--n", "8", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["gms_pulses"] == 15 and doc["qubits"] == 11


def test_table1_passes(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    assert "FAIL" not in out
    assert "EXCLUDED" in out  # local adder cells stay out of scope


def test_table1_json_manifest(capsys):
    code, out, _ = run(capsys, "table1", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["command"] == "table1"
    outcomes = {c["outcome"] for c in doc["checks"]}
    assert outcomes == {"PASS", "SKIPPED"}


def test_table1_json_keeps_want_got(capsys):
    _, text, _ = run(capsys, "table1")
    _, out, _ = run(capsys, "table1", "--json")
    checks = json.loads(out)["checks"]
    lines = text.splitlines()[:-1]
    assert len(checks) == len(lines)
    for c, line in zip(checks, lines):
        assert line.startswith(c["name"])
        assert line.endswith(f"  want {c['want']}  got {c['got']}")


def test_optimize_writes_scans(tmp_path, capsys):
    code, out, _ = run(capsys, "optimize-powerlaw", "--n", "10", "--m", "2",
                       "--out-dir", str(tmp_path), "--json")
    assert code == 0 and "fidelity=" in out
    for axis in ("b1", "b2", "p1", "p2"):
        lines = (tmp_path / f"scan_{axis}.csv").read_text().splitlines()
        assert lines[0] == "value,fidelity" and len(lines) > 10
    doc = json.loads(out.splitlines()[-1])
    res = fourier.optimize_powerlaw(10, 2, 0.1)
    assert doc["command"] == "optimize-powerlaw" and doc["checks"][0]["outcome"] == "PASS"
    assert doc["params"] == [list(t) for t in res.params.terms]
    assert doc["fidelity"] == res.fidelity and f"fidelity={res.fidelity:.9f}" in out
    search = doc["checks"][0]
    assert (search["bound_solves"], search["b_tuples"], search["pruned_p_tuples"]) == \
        (res.bound_solves, res.b_tuples, res.pruned) == (351, 2448, 334)
    assert f"evaluations={res.evaluations}" in out and res.evaluations == 2799


def test_optimize_deterministic(tmp_path, capsys):
    _, a, _ = run(capsys, "optimize-powerlaw", "--n", "10", "--m", "1",
                  "--out-dir", str(tmp_path / "x"))
    _, b, _ = run(capsys, "optimize-powerlaw", "--n", "10", "--m", "1",
                  "--out-dir", str(tmp_path / "x"))
    assert a == b
    scans1 = (tmp_path / "x" / "scan_b1.csv").read_text()
    _, _, _ = run(capsys, "optimize-powerlaw", "--n", "10", "--m", "1",
                  "--out-dir", str(tmp_path / "y"))
    assert (tmp_path / "y" / "scan_b1.csv").read_text() == scans1


def test_fidelity_scan_stdout(tmp_path, capsys):
    code, out, _ = run(capsys, "fidelity-scan", "--axis", "p1", "--n", "10",
                       "--params", "0.4,-0.5,2.5,3.4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "value,fidelity"
    best = max(lines[1:], key=lambda ln: float(ln.split(",")[1]))
    assert abs(float(best.split(",")[0]) - 2.5) < 1e-9
    csv = tmp_path / "scan.csv"
    code, written, _ = run(capsys, "fidelity-scan", "--axis", "p1", "--n", "10",
                           "--params", "0.4,-0.5,2.5,3.4", "--out", str(csv))
    assert code == 0 and written == "" and csv.read_text() == out


def test_fidelity_scan_bad_axis(capsys):
    for axis, params, flag in (("q9", "0.4,2.5", "--axis"), ("b1", "0.4,x", "--params"),
                               ("b1", "0.4,2.5,1", "--params")):
        code, out, err = run(capsys, "fidelity-scan", "--axis", axis, "--n", "10",
                             "--params", params)
        assert code == 2 and out == "" and flag in err


def test_schema_error_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_qubits": 2, "gates": [{"kind": "WAT", "qubits": []}]}')
    code, _, err = run(capsys, "verify", str(bad), "--against", "fanout", "--n", "2")
    assert code == 2 and "kind" in err


def test_synth_linear(tmp_path, capsys):
    m = tmp_path / "m.json"
    m.write_text("[[1,1,0],[0,1,0],[0,0,1]]")
    code, out, _ = run(capsys, "synth", "linear", "--matrix", str(m))
    circ = deserialize(out)
    assert code == 0 and circ.n_qubits == 3
    # one single-target fan: a dressed XX pulse
    assert sum(1 for g in circ.gates if g.kind in ("XX", "GMS")) == 1
    m.write_text("[[0,1,0],[0,0,1],[1,0,0]]")  # a wire permutation costs no gate
    code, out, err = run(capsys, "synth", "linear", "--matrix", str(m))
    assert code == 0 and deserialize(out).gates == ()
    assert "relabeling (zero pulse cost): [1, 2, 0]" in err


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    # only validated input exits 2; a fault inside a construction propagates
    from gmsforge import constructions

    def broken(*args, **kwargs):
        raise ValueError("internal fault")
    monkeypatch.setattr(constructions, "fanout", broken)
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(["synth", "fanout", "--n", "4"])


# {dir} is a directory, {bin} holds bytes that are not UTF-8, {file} is a
# plain file and {ok} a circuit that passes against fanout --n 3
UNUSABLE_PATHS = {
    "verify a directory": ("verify {dir} --against fanout --n 3", "dir"),
    "verify non-utf8": ("verify {bin} --against fanout --n 3", "bin"),
    "against a directory": ("verify {ok} --against {dir} --n 3", "dir"),
    "against non-utf8": ("verify {ok} --against {bin}", "bin"),
    "emit-unitary to a directory": ("verify {ok} --against fanout --n 3 "
                                    "--emit-unitary {dir}", "dir"),
    "count a directory": ("count {dir}", "dir"),
    "synth out to a directory": ("synth fanout --n 3 --out {dir}", "dir"),
    "matrix a directory": ("synth linear --matrix {dir}", "dir"),
    "matrix non-utf8": ("synth linear --matrix {bin}", "bin"),
    "scan out to a directory": ("fidelity-scan --axis p1 --n 4 --params 0.4,2.5 "
                                "--out {dir}", "dir"),
    "out-dir a file": ("optimize-powerlaw --n 4 --m 1 --out-dir {file}", "file"),
}


@pytest.mark.parametrize("argv, named", UNUSABLE_PATHS.values(), ids=UNUSABLE_PATHS)
def test_unusable_user_path_is_a_usage_error(argv, named, tmp_path, capsys, monkeypatch):
    # exit 1 means the check failed: a path that cannot be read or written
    # exits 2, with the path named and no traceback, before the check or
    # the search runs
    paths = {"dir": tmp_path / "d", "bin": tmp_path / "b.json",
             "file": tmp_path / "f", "ok": tmp_path / "ok.json"}
    paths["dir"].mkdir()
    paths["bin"].write_bytes(b"\xff\xfe{}")
    paths["file"].write_text("x")
    paths["ok"].write_text(serialize(fanout(3).generated))
    for module, name in ((cli, "equiv_on_ancilla"), (fourier, "optimize_powerlaw")):
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: pytest.fail(
            f"{name} ran before the path was refused"))
    code, out, err = run(capsys, *argv.format(**paths).split())
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(paths[named]) in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_bad_construction_arguments_exit2(tmp_path, capsys):
    code, out, err = run(capsys, "synth", "toffoli", "--n", "2")
    assert code == 2 and out == "" and "n >=" in err
    code, _, err = run(capsys, "synth", "qft-gms", "--n", "4", "--profile",
                       "power-law", "--terms", "0.4:x")
    assert code == 2 and "--terms" in err
    code, out, err = run(capsys, "synth", "qft-gms", "--n", "4", "--profile", "power-law")
    assert code == 2 and out == "" and "--terms" in err
    code, out, err = run(capsys, "verify", str(tmp_path / "missing.json"), "--against",
                         "fanout", "--n", "3")
    assert code == 2 and out == "" and "missing.json" in err
    bad = tmp_path / "m.json"
    for text, path in (("[[1,1],[0,", "line 1"), ('{"a": 1}', "list of rows"),
                       ('[[1,0],[0,"x"]]', "[1][1]: expected 0 or 1"),
                       ("[[1,0],[1]]", "[1]: expected a row of 2 entries"),
                       ("[]", "at least one row")):
        bad.write_text(text)
        for command in ("synth", "count"):
            code, out, err = run(capsys, command, "linear", "--matrix", str(bad))
            assert code == 2 and out == "" and "--matrix" in err and path in err
    # non-finite couplings, each refused naming its flag
    for argv, flag in ((["synth", "phase-poly", "--n", "3", "--theta", "nan"], "--theta"),
                       (["synth", "star", "--n", "4", "--chi", "inf"], "--chi"),
                       (["synth", "qft-gms", "--n", "3", "--profile", "power-law",
                         "--terms", "0.4:nan"], "--terms"),
                       (["fidelity-scan", "--axis", "b1", "--n", "5", "--params",
                         "nan,2"], "--params")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and flag in err and "finite" in err
    scan = ["fidelity-scan", "--axis", "p1", "--n", "10", "--params", "0.4,-0.5,2.5,3.4"]
    for step in ("0", "nan", "-0.1", "inf"):
        for argv in (["optimize-powerlaw", "--n", "10", "--m", "2",
                      "--out-dir", str(tmp_path / "o")], scan):
            code, out, err = run(capsys, *argv, "--step", step)
            assert code == 2 and out == "" and "step" in err


def test_optimize_refuses_a_short_register(tmp_path, capsys):
    # n = 0 with m = 2 or 3, and any negative n, reached a reshape of the
    # empty grid, an internal error on the verification-failure exit 1
    for n in ("0", "-3"):
        for m in ("1", "2", "3"):
            code, out, err = run(capsys, "optimize-powerlaw", "--n", n, "--m", m,
                                 "--out-dir", str(tmp_path / "o"))
            assert (code, out, err) == (2, "", "error: need n >= 2\n")
    assert not (tmp_path / "o").exists()


def test_power_law_adder_offset(capsys):
    # offset 0 put the adder's nearest coupling at 0**p: a ZeroDivisionError
    terms = ["qfa-gms", "--n", "3", "--profile", "power-law", "--terms", "0.4:2.5"]
    for command in ("synth", "count"):
        code, out, err = run(capsys, command, *terms)
        assert code == 2 and out == "" and "--offset" in err
    code, out, _ = run(capsys, "synth", *terms, "--offset", "1")
    assert code == 0 and deserialize(out).cost().gms_pulses == 14
    code, out, _ = run(capsys, "count", *terms, "--offset", "1", "--json")
    assert code == 0 and json.loads(out)["gms_pulses"] == 14


def test_max_gms_only_output_guard_exit3(capsys):
    # Toffoli-11's pulses grow to 92160 full-register pulses
    code, out, err = run(capsys, "count", "toffoli", "--n", "11", "--max-gms-only")
    assert code == 3 and out == ""
    assert f"shrink guard: 92160 pulses asked, limit is {cons.MAX_SHRINK_PULSES} pulses" in err


LATTICE_ASKED = 8 * (math.comb(253, 3) * 95 + 251 * 121 * 10 + 3 * 120**3 * 10)
"""m = 3 at step 0.01, n = 10: 2667126 multisets of 251 exponents, 95 floats
each, the powers and power-law terms of 251 exponents and 120 b values, and
one enumeration of 120^3 b-tuples with two temporaries, 8 bytes a float."""


def test_optimize_lattice_guard_exit3(tmp_path, capsys):
    # the guard trips before any grid list exists
    code, out, err = run(capsys, "optimize-powerlaw", "--n", "10", "--m", "3",
                         "--step", "0.01", "--out-dir", str(tmp_path))
    assert code == 3 and out == ""
    assert f"lattice guard: {LATTICE_ASKED} bytes asked, limit is {16 << 24} bytes" in err
    # m = 2 at step 0.02, which the K^2 exponent lattice refused (457228800
    # bytes), holds about 4.5 MB now and runs
    code, out, _ = run(capsys, "optimize-powerlaw", "--n", "10", "--m", "2",
                       "--step", "0.02", "--out-dir", str(tmp_path))
    assert code == 0 and "fidelity=0.999122601" in out


def test_parser_is_built_once_and_options_do_not_leak(tmp_path, capsys, monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    path = tmp_path / "f4.json"
    run(capsys, "synth", "fanout", "--n", "4", "--out", str(path))
    code, out, _ = run(capsys, "verify", str(path), "--against", "fanout", "--n", "4",
                       "--json")
    assert code == 0 and json.loads(out.splitlines()[1])["command"] == "verify"
    code, out, _ = run(capsys, "verify", str(path), "--against", "fanout", "--n", "4")
    assert code == 0 and out.startswith("PASS") and len(out.splitlines()) == 1
    code, shrunk, _ = run(capsys, "count", "toffoli", "--n", "5", "--max-gms-only")
    code, plain, _ = run(capsys, "count", "toffoli", "--n", "5")
    assert shrunk.startswith("gms_pulses=108 ") and plain.startswith("gms_pulses=9 ")
    assert built == [1]


def test_dispatch_looks_up_the_command_when_it_runs(capsys, monkeypatch):
    run(capsys, "table1")  # the parser exists before the patch
    monkeypatch.setattr(cli, "cmd_table1", lambda args: print("patched") or 7)
    code, out, _ = run(capsys, "table1")
    assert code == 7 and out == "patched\n"


@pytest.mark.parametrize("value", ["abc", "-1", "1.5", "0"])
def test_bad_dense_guard_variable_exit2(tmp_path, capsys, monkeypatch, value):
    path = tmp_path / "f3.json"
    run(capsys, "synth", "fanout", "--n", "3", "--out", str(path))
    monkeypatch.setenv("GMSFORGE_MAX_DENSE_QUBITS", value)
    code, out, err = run(capsys, "verify", str(path), "--against", "fanout", "--n", "3")
    assert code == 2 and out == ""
    assert "GMSFORGE_MAX_DENSE_QUBITS" in err and repr(value) in err


# -- every construction through its builder's signature ---------------------------

# each construction's required flags, at a small width
MINIMAL = {"fanout": {"n": 4}, "fanin": {"n": 4}, "star": {"n": 4},
           "parity-prefix": {"n": 4}, "cnot-xx": {}, "cnot-4gms": {"n": 4},
           "tdistill": {}, "phase-poly": {"n": 4, "theta": 0.3}, "ccz-3gms": {},
           "cccz-4gms": {}, "cccz-3gms": {}, "toffoli3": {}, "toffoli4-7gms": {},
           "toffoli": {"n": 6}, "qft-ref": {"n": 4}, "qft-gms": {"n": 4},
           "qfa-gms": {"n": 3}, "gms-dagger": {"n": 4, "chi": 0.7},
           "linear": {"matrix": None}}


@pytest.mark.parametrize("name", sorted(cli.SYNTH))
def test_synth_and_count_every_construction(name, tmp_path, capsys):
    kwargs = dict(MINIMAL[name])
    if "matrix" in kwargs:
        kwargs["matrix"] = str(tmp_path / "m.json")
        Path(kwargs["matrix"]).write_text("[[1,1,0],[0,1,1],[0,0,1]]")
    flags = [s for k, v in kwargs.items() for s in (f"--{k}", str(v))]
    build = getattr(*cli.SYNTH[name])
    if "profile" in inspect.signature(build).parameters:
        kwargs["profile"] = Exponential()
    built = build(**kwargs)
    want = getattr(built, "generated", built)
    code, out, _ = run(capsys, "synth", name, *flags)
    assert code == 0 and deserialize(out).gates == want.gates
    code, out, _ = run(capsys, "count", name, *flags, "--json")
    assert code == 0 and json.loads(out) == want.cost().as_dict()


def test_missing_required_flag_is_named(capsys):
    for name, flag in (("toffoli", "--n"), ("phase-poly", "--theta"),
                       ("linear", "--matrix")):
        argv = ["--n", "4"] if flag != "--n" else []
        code, out, err = run(capsys, "synth", name, *argv)
        assert code == 2 and out == "" and flag in err


# (construction, wire flag, the other wire flag it needs to stay distinct)
WIRE_FLAGS = [("fanout", "control", []), ("fanin", "target", []),
              ("star", "hub", []), ("parity-prefix", "target", []),
              ("cnot-xx", "control", ["--target", "1"]),
              ("cnot-xx", "target", ["--control", "1"]),
              ("cnot-4gms", "control", ["--target", "1"]),
              ("cnot-4gms", "target", ["--control", "1"])]


@pytest.mark.parametrize("name,flag,other", WIRE_FLAGS)
def test_wire_flags_are_checked(name, flag, other, capsys):
    n = 4
    for wire in (0, n - 1):
        for command in ("synth", "count"):
            code, _, _ = run(capsys, command, name, "--n", str(n), f"--{flag}",
                             str(wire), *other)
            assert code == 0, (command, wire)
    for wire in (n, -1):
        for command in ("synth", "count"):
            code, out, err = run(capsys, command, name, "--n", str(n), f"--{flag}",
                                 str(wire), *other)
            assert code == 2 and out == ""
            assert f"--{flag}" in err and f"{n}-qubit" in err


def test_cnot_xx_wires(capsys):
    code, out, _ = run(capsys, "synth", "cnot-xx", "--control", "1", "--target", "0")
    # wire 0 is the high bit: |q0 q1> -> |q0 ^ q1, q1>
    want = np.eye(4)[:, [0, 3, 2, 1]]
    assert code == 0 and sim.equiv_phase(sim.unitary_of(deserialize(out)), want).ok
    code, out, err = run(capsys, "synth", "cnot-xx", "--control", "0", "--target", "0")
    assert code == 2 and out == "" and "--control" in err and "--target" in err
    code, out, err = run(capsys, "synth", "cnot-xx", "--control", "2", "--target", "0",
                         "--n", "2")
    assert code == 2 and out == "" and "--control" in err


def test_tiny_grid_step_refused_before_any_list(tmp_path, capsys):
    for name, argv in (("lattice", ["optimize-powerlaw", "--n", "10", "--m", "2",
                                     "--out-dir", str(tmp_path)]),
                       ("scan", ["fidelity-scan", "--axis", "p1", "--n", "10",
                                 "--params", "0.4,-0.5,2.5,3.4"])):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv, "--step", "1e-9")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and out == "" and f"{name} guard: " in err
        assert f"limit is {16 << 24} bytes" in err
        assert peak < 4 << 20


# -- every resource guard: one GuardError, one message, exit 3 --------------------

PAPER_OPT = PowerLawSum(((0.4, 2.5), (-0.5, 3.4)), 0)
TRIP_FILES = {"tdistill": ["tdistill"], "toffoli5": ["toffoli", "--n", "5"],
              "fanout6": ["fanout", "--n", "6"], "fanout7": ["fanout", "--n", "7"]}
TOFFOLI5 = ["verify", "{toffoli5}", "--against", "toffoli", "--n", "5"]
LATTICE = ["optimize-powerlaw", "--n", "10", "--m", "3", "--step", "0.01",
           "--out-dir", "{tmp}"]
SCAN = ["fidelity-scan", "--axis", "p1", "--n", "10", "--params", "0.4,-0.5,2.5,3.4",
        "--step", "1e-9"]

# (guard, GMSFORGE_MAX_DENSE_QUBITS, request, size asked, limit, unit): a list is
# a command line whose {file} is synthesized from TRIP_FILES first, a callable a
# library call; each request trips its guard exactly when it asks above the limit
GUARDS = [
    # tdistill moves 11 of its 15 wires, toffoli-5 3 of its 7
    ("dense", None, ["verify", "{tdistill}", "--against", "tdistill"],
     16 << 26, 16 << 24, "bytes"),
    ("dense", "4", TOFFOLI5, 16 << 8, 16 << 8, "bytes"),
    ("dense", "3", TOFFOLI5, 16 << 8, 16 << 6, "bytes"),
    ("lattice", None, LATTICE, LATTICE_ASKED, 16 << 24, "bytes"),
    ("scan", None, SCAN, 136 * 2500000000, 16 << 24, "bytes"),
    # 481 and 482 points of 136 bytes about a 65536-byte budget
    ("scan", "6", SCAN[:-1] + ["0.005189"], 136 * 481, 16 << 12, "bytes"),
    ("scan", "6", SCAN[:-1] + ["0.005182"], 136 * 482, 16 << 12, "bytes"),
    ("shrink", None, ["count", "toffoli", "--n", "10", "--max-gms-only"],
     10752, 65536, "pulses"),
    ("shrink", None, ["count", "toffoli", "--n", "11", "--max-gms-only"],
     92160, 65536, "pulses"),
    ("shrink", None, lambda: cons.gms_shrink(toffoli_n(10).generated), 10752, 65536, "pulses"),
    ("shrink", None, lambda: cons.gms_shrink(toffoli_n(11).generated), 92160, 65536, "pulses"),
    ("dump", None, ["verify", "{fanout6}", "--against", "fanout", "--n", "6",
                    "--emit-unitary", "{tmp}/u.csv"], 6, 6, "qubits"),
    ("dump", None, ["verify", "{fanout7}", "--against", "fanout", "--n", "7",
                    "--emit-unitary", "{tmp}/u.csv"], 7, 6, "qubits"),
    ("direct fidelity", None, lambda: fourier.direct_fidelity(10, PAPER_OPT),
     10, 10, "qubits"),
    ("direct fidelity", None, lambda: fourier.direct_fidelity(11, PAPER_OPT),
     11, 10, "qubits"),
]


@pytest.mark.parametrize("name,qubits,ask,asked,limit,unit", GUARDS,
                         ids=[f"{g[0]}-{g[3]}-{g[4]}" for g in GUARDS])
def test_every_guard(name, qubits, ask, asked, limit, unit, tmp_path, capsys, monkeypatch):
    message = f"{name} guard: {asked} {unit} asked, limit is {limit} {unit}"
    if callable(ask):
        call, argv = ask, None
    else:
        files = {}
        for key, flags in TRIP_FILES.items():
            if f"{{{key}}}" in ask:
                files[key] = str(tmp_path / f"{key}.json")
                assert cli.main(["synth", *flags, "--out", files[key]]) == 0
        argv = [a.format(tmp=tmp_path, **files) for a in ask]
        args = cli._parser().parse_args(argv)
        call = functools.partial(getattr(cli, args.func), args)
    if qubits is None:
        monkeypatch.delenv("GMSFORGE_MAX_DENSE_QUBITS", raising=False)
    else:
        monkeypatch.setenv("GMSFORGE_MAX_DENSE_QUBITS", qubits)
    if asked <= limit:
        call()
    else:
        with pytest.raises(GuardError) as info:
            call()
        assert str(info.value).startswith(message)
    if argv is None:
        return
    capsys.readouterr()
    # every command here but fidelity-scan takes --json
    for extra in ((),) if argv[0] == "fidelity-scan" else ((), ("--json",)):
        code, out, err = run(capsys, *argv, *extra)
        if asked <= limit:
            assert code == 0, err
        else:
            assert code == 3 and out == "" and err.startswith(f"error: {message}")


def test_readme_construction_table_is_synth():
    # the README's table of constructions names cli.SYNTH's entries and
    # their builders, in order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    header = "| name | builder | flags (default) | required |"
    table = readme.split(header, 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    rows = [[cell.strip().strip("`") for cell in line.split("|")[1:3]] for line in table]
    assert rows == [[name, f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"]
                    for name, (module, attr) in cli.SYNTH.items()]


def test_every_builder_parameter_is_a_flag():
    # a new builder parameter must not become unreachable from the command line
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command in ("synth", "count", "verify"):
        flags = {a.dest for a in subparsers.choices[command]._actions
                 if a.option_strings}
        for name, (module, attr) in cli.SYNTH.items():
            params = inspect.signature(getattr(module, attr)).parameters
            assert set(params) - {"profile"} <= flags, (command, name)
