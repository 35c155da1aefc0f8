import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gmsforge import cli, sim
from gmsforge import constructions as cons
from gmsforge.circuit import deserialize, rx, serialize
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
    cases = (((t5, "toffoli", "--n", "5"), "ancilla", "oracle", 7 + 5, 9),
             ((f5, "fanin", "--n", "5"), "dense", "oracle", 5 + 5, 1),
             ((t5, str(t5)), "dense", "circuit", 7 + 7, 9))
    for (path, *against), method, how, width, phase in cases:
        _, plain, _ = run(capsys, "verify", str(path), "--against", *against)
        code, out, _ = run(capsys, "verify", str(path), "--against", *against, "--json")
        text, doc = out.splitlines()
        c = json.loads(doc)["checks"][0]
        assert code == 0 and plain == text + "\n"
        assert c["method"] == method and c["reference"] == how
        assert c["columns_bytes"] == 16 << width
        assert 0 <= c["reference_s"] and 0 <= c["check_s"]
        # the passes _run made over the columns, one phase pass per run of
        # adjacent pulses, and the bytes of the plan's tables and blocks
        passes = c["passes"]
        assert list(passes) == ["block", "phase", "cnot"]
        assert passes["phase"] == phase
        assert passes["block"] > 0 and passes["cnot"] == 0
        steps = sim._plan(deserialize(path.read_text())).steps
        assert c["plan_bytes"] == sum(a.nbytes for _, _, args in steps for a in args
                                      if isinstance(a, np.ndarray)) > 0


def test_verify_toffoli_simulates_no_reference_circuit(tmp_path, capsys, monkeypatch):
    path = tmp_path / "t5.json"
    run(capsys, "synth", "toffoli", "--n", "5", "--out", str(path))

    def forbidden(*args):
        raise AssertionError("a reference circuit was built or simulated")

    monkeypatch.setattr(cons, "toffoli_reference", forbidden)
    monkeypatch.setattr(cons, "controlled_z_reference", forbidden)
    monkeypatch.setattr(cli, "unitary_of", forbidden)
    code, out, _ = run(capsys, "verify", str(path), "--against", "toffoli", "--n", "5")
    assert code == 0 and out.startswith("PASS")


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
    # Toffoli-5 runs on 7 qubits: 2^7 x 2^5 columns pass a 6-qubit guard's
    # 2^12 entries, a 5-qubit guard's 2^10 do not (the reference still fits)
    path = tmp_path / "t5.json"
    run(capsys, "synth", "toffoli", "--n", "5", "--out", str(path))
    monkeypatch.setenv("GMSFORGE_MAX_DENSE_QUBITS", "6")
    code, out, _ = run(capsys, "verify", str(path), "--against", "toffoli", "--n", "5")
    assert code == 0 and out.startswith("PASS")
    monkeypatch.setenv("GMSFORGE_MAX_DENSE_QUBITS", "5")
    code, out, err = run(capsys, "verify", str(path), "--against", "toffoli", "--n", "5")
    assert code == 3 and out == ""
    assert "guard" in err and str(16 << 12) in err and str(16 << 10) in err


def test_verify_emit_unitary(tmp_path, capsys):
    path = tmp_path / "cx.json"
    run(capsys, "synth", "cnot-xx", "--out", str(path))
    dump = tmp_path / "u.csv"
    code, _, _ = run(capsys, "verify", str(path), "--against", "cnot-xx",
                     "--emit-unitary", str(dump))
    assert code == 0
    rows = dump.read_text().strip().split("\n")
    assert len(rows) == 4 and len(rows[0].split(",")) == 8  # re,im per entry


def test_verify_qft_roundtrip(tmp_path, capsys):
    # pulse-profile tables survive the JSON round trip through the CLI
    path = tmp_path / "q4.json"
    run(capsys, "synth", "qft-gms", "--n", "4", "--out", str(path))
    code, out, _ = run(capsys, "verify", str(path), "--against", "qft-ref", "--n", "4")
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
                       "--out-dir", str(tmp_path))
    assert code == 0 and "fidelity=" in out
    for axis in ("b1", "b2", "p1", "p2"):
        lines = (tmp_path / f"scan_{axis}.csv").read_text().splitlines()
        assert lines[0] == "value,fidelity" and len(lines) > 10


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


def test_fidelity_scan_stdout(capsys):
    code, out, _ = run(capsys, "fidelity-scan", "--axis", "p1", "--n", "10",
                       "--params", "0.4,-0.5,2.5,3.4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "value,fidelity"
    best = max(lines[1:], key=lambda ln: float(ln.split(",")[1]))
    assert abs(float(best.split(",")[0]) - 2.5) < 1e-9


def test_fidelity_scan_bad_axis(capsys):
    code, _, err = run(capsys, "fidelity-scan", "--axis", "q9", "--n", "10",
                       "--params", "0.4,2.5")
    assert code == 2 and "axis" in err


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


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    # only validated input exits 2; a fault inside a construction propagates
    from gmsforge import constructions

    def broken(*args, **kwargs):
        raise ValueError("internal fault")
    monkeypatch.setattr(constructions, "fanout", broken)
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(["synth", "fanout", "--n", "4"])


def test_bad_construction_arguments_exit2(tmp_path, capsys):
    code, out, err = run(capsys, "synth", "toffoli", "--n", "2")
    assert code == 2 and out == "" and "n >=" in err
    code, _, err = run(capsys, "synth", "qft-gms", "--n", "4", "--profile",
                       "power-law", "--terms", "0.4:x")
    assert code == 2 and "--terms" in err
    bad = tmp_path / "m.json"
    for text, path in (("[[1,1],[0,", "line 1"), ('{"a": 1}', "list of rows"),
                       ('[[1,0],[0,"x"]]', "[1][1]: expected 0 or 1"),
                       ("[[1,0],[1]]", "[1]: expected a row of 2 entries")):
        bad.write_text(text)
        code, out, err = run(capsys, "synth", "linear", "--matrix", str(bad))
        assert code == 2 and out == "" and "--matrix" in err and path in err


def test_max_gms_only_output_guard_exit3(capsys):
    # Toffoli-11's pulses grow to 92160 full-register pulses
    code, out, err = run(capsys, "count", "toffoli", "--n", "11", "--max-gms-only")
    assert code == 3 and out == ""
    assert "guard" in err and "92160" in err and str(cli.MAX_SHRINK_PULSES) in err


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
