"""Command-line front end: synthesis, verification, counting, the count
ledger, and the power-law optimizer.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
guard tripped.  Any other exception is an internal error and propagates.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, constructions as cons, fourier, gf2
from .circuit import (ArgumentError, Circuit, Exponential, PowerLawSum,
                      SchemaError, deserialize, serialize)
from .sim import DenseGuardError, equiv_on_ancilla, unitary_of

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_GUARD = 0, 1, 2, 3

MAX_SHRINK_PULSES = 1 << 16
"""Most pulses ``--max-gms-only`` may emit.  Toffoli-10 emits 10752 and
Toffoli-11 would emit 92160; at 13 qubits each emitted pulse held about
0.5 kB of gates and wrote about 0.5 kB of JSON."""


class OutputGuardError(RuntimeError):
    """A rewrite would emit more gates than its guard allows."""


def _profile_from_args(args):
    if args.profile == "exponential":
        return Exponential()
    if args.profile == "power-law":
        if not args.terms:
            raise ArgumentError("power-law profile needs --terms b:p[,b:p...]")
        try:
            terms = tuple((float(b), float(p)) for b, p in
                          (chunk.split(":") for chunk in args.terms.split(",")))
        except ValueError:
            raise ArgumentError(
                f"--terms must read b:p[,b:p...], not {args.terms!r}") from None
        return PowerLawSum(terms, args.offset)
    raise ArgumentError(f"unknown profile {args.profile!r}")


def _need(args, name):
    val = getattr(args, name)
    if val is None:
        raise ArgumentError(f"construction requires --{name.replace('_', '-')}")
    return val


def _synth_linear(args):
    if not args.matrix:
        raise ArgumentError("synth linear needs --matrix FILE (JSON rows of 0/1)")
    try:
        m = gf2.Gf2Matrix.from_rows(json.loads(Path(args.matrix).read_text()))
    except (json.JSONDecodeError, ArgumentError) as exc:
        raise ArgumentError(f"--matrix {args.matrix}: {exc}") from None
    layers, perm = gf2.synthesize_linear(m)
    gates = []
    for layer in layers:
        gates += cons._fan_gates(layer.control, sorted(layer.targets))
    if list(perm) != list(range(m.n)):
        # the residual stage is free wire relabeling, not gates
        print(f"note: output wire relabeling (zero pulse cost): {list(perm)}",
              file=sys.stderr)
    return Circuit(m.n, tuple(gates))


# name -> (builder(args) -> Circuit | ConstructionSpec)
SYNTH = {
    "fanout": lambda a: cons.fanout(_need(a, "n"), a.control or 0),
    "fanin": lambda a: cons.fanin(_need(a, "n"), a.target or 0),
    "star": lambda a: cons.star_coupling(_need(a, "n"), a.hub or 0,
                                         a.chi if a.chi is not None else math.pi / 2),
    "parity-prefix": lambda a: cons.parity_measure_prefix(_need(a, "n"), a.target or 0),
    "cnot-xx": lambda a: cons.cnot_via_xx(a.control or 0, a.target or 1, a.n),
    "cnot-4gms": lambda a: cons.cnot_via_4gms(_need(a, "n"), a.control or 0,
                                              a.target if a.target is not None else 1),
    "tdistill": lambda a: cons.tdistill(),
    "phase-poly": lambda a: cons.phase_polynomial_identity(_need(a, "n"), _need(a, "theta")),
    "ccz-3gms": lambda a: cons.ccz_3gms(),
    "cccz-4gms": lambda a: cons.cccz_4gms(),
    "cccz-3gms": lambda a: cons.cccz_3gms(),
    "toffoli3": lambda a: cons.toffoli3_gms(),
    "toffoli4-7gms": lambda a: cons.toffoli4_7gms(),
    "toffoli": lambda a: cons.toffoli_n(_need(a, "n")),
    "qft-ref": lambda a: fourier.qft_reference_spec(_need(a, "n")),
    "qft-gms": lambda a: fourier.qft_gms(_need(a, "n"), _profile_from_args(a)),
    "qfa-gms": lambda a: fourier.qfa_gms(_need(a, "n"), _profile_from_args(a)),
    "gms-dagger": lambda a: cons.gms_dagger_rewrite(_need(a, "n"), _need(a, "chi")),
    "linear": _synth_linear,
}


def _build(name, args) -> Circuit:
    built = SYNTH[name](args)
    circ = built.generated if isinstance(built, cons.ConstructionSpec) else built
    if args.max_gms_only:
        # a pulse missing k wires becomes 2^k full-register pulses
        n = circ.n_qubits
        pulses = sum(1 << (n - len(g.qubits))
                     for g in circ.gates if g.kind == "GMS")
        if pulses > MAX_SHRINK_PULSES:
            raise OutputGuardError(
                f"shrink guard: --max-gms-only would emit {pulses} pulses, "
                f"limit is {MAX_SHRINK_PULSES} pulses")
        circ = cons.gms_shrink(circ)
    return circ


def _resolve(target: str, args, build) -> Circuit | cons.ConstructionSpec:
    """A construction name always means the construction, built by
    ``build(name, args)``; any other string is a circuit JSON path."""
    if target in SYNTH:
        return build(target, args)
    if not Path(target).exists():
        raise ArgumentError(f"{target!r} is neither a file nor one of: "
                            + " ".join(sorted(SYNTH)))
    return deserialize(Path(target).read_text())


def cmd_synth(args) -> int:
    if args.name not in SYNTH:
        print(f"unknown construction {args.name!r}; valid names: "
              + " ".join(sorted(SYNTH)), file=sys.stderr)
        return EXIT_USAGE
    text = serialize(_build(args.name, args))
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _reference_matrix(target: str, args) -> tuple[np.ndarray, str]:
    """The dense data-register unitary to check against, and how it was
    built: a construction's action applied to the data basis ("oracle"),
    or the simulated unitary of a plain circuit or file ("circuit")."""
    ref = _resolve(target, args, lambda name, a: SYNTH[name](a))
    if isinstance(ref, cons.ConstructionSpec):
        return ref.act.matrix(), "oracle"
    return unitary_of(ref), "circuit"


def cmd_verify(args) -> int:
    start = time.perf_counter()
    circuit = deserialize(Path(args.file).read_text())
    read = time.perf_counter()
    matrix, how = _reference_matrix(args.against, args)
    built = time.perf_counter()
    res = equiv_on_ancilla(circuit, matrix, args.tol)
    checked = time.perf_counter()
    outcome = "PASS" if res.ok else f"FAIL ({res.failure})"
    print(f"{outcome} phase={res.phase.real:+.9f}{res.phase.imag:+.9f}j "
          f"max_deviation={res.max_deviation:.3e}")
    if args.emit_unitary:
        if circuit.n_qubits > 6:
            print("unitary dump is limited to 6 qubits", file=sys.stderr)
            return EXIT_GUARD
        _dump_unitary(unitary_of(circuit), args.emit_unitary)
    if args.json:
        n, d = circuit.n_qubits, len(matrix).bit_length() - 1
        print(json.dumps(_manifest("verify", vars(args), start, [
            {"name": f"{args.file} vs {args.against}",
             "outcome": "PASS" if res.ok else "FAIL",
             "deviation": res.max_deviation, "phase": [res.phase.real, res.phase.imag],
             "leakage": res.leakage, "failure": res.failure,
             "method": "dense" if d == n else "ancilla", "reference": how,
             "columns_bytes": 16 << (n + d), "passes": res.passes,
             "plan_bytes": res.plan_bytes,
             "reference_s": round(built - read, 6),
             "check_s": round(checked - built, 6)}])))
    return EXIT_OK if res.ok else EXIT_FAIL


def _dump_unitary(u: np.ndarray, path: str) -> None:
    # one row per line; each entry contributes a "re,im" pair of columns
    lines = []
    for row in u:
        lines.append(",".join(f"{z.real:.17g},{z.imag:.17g}" for z in row))
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_count(args) -> int:
    circuit = _resolve(args.target, args, _build)
    report = circuit.cost()
    if args.json:
        print(json.dumps(report.as_dict()))
    else:
        by_size = " ".join(f"size{k}:{v}" for k, v in report.gms_by_size.items())
        print(f"gms_pulses={report.gms_pulses} ({by_size or 'none'}) "
              f"local_entangling={report.local_entangling} "
              f"single_qubit={report.single_qubit} "
              f"qubits={report.qubits} ancillas={report.ancillas}")
    return EXIT_OK


def table1_rows() -> list[dict]:
    """Recompute every in-scope cell of the count ledger.

    Multi-controlled rows bind the pulse count exactly and the qubit count
    as an upper bound.  The local adder cells are excluded: the banded
    count model that reproduces the transform column does not generate
    them (documented in fourier)."""
    rows = []

    def tof_row(n, q_bound, eg):
        c = cons.toffoli_n(n).generated.cost()
        ok = c.gms_pulses == eg and c.qubits <= q_bound
        rows.append({"name": f"Toffoli-{n}", "want": f"<={q_bound}q {eg}eg",
                     "got": f"{c.qubits}q {c.gms_pulses}eg", "outcome": _pf(ok)})

    tof_row(4, 5, 3)
    tof_row(8, 11, 15)
    tof_row(9, 13, 21)
    tof_row(10, 14, 21)

    aqft_local = {10: 30, 11: 34, 12: 38, 13: 42, 14: 46, 15: 50}
    aqft_mixed = {10: 17, 11: 19, 12: 21, 13: 23, 14: 25, 15: 27}
    for n in range(10, 16):
        got_l = fourier.aqft_count(n, "local_banded")
        got_m = fourier.aqft_count(n, "mixed_gms")
        ok = got_l == aqft_local[n] and got_m == aqft_mixed[n]
        rows.append({"name": f"AQFT-{n}",
                     "want": f"local {aqft_local[n]} / mixed {aqft_mixed[n]}",
                     "got": f"local {got_l} / mixed {got_m}", "outcome": _pf(ok)})

    aqfa_mixed = {5: 23, 6: 29, 7: 35}
    for n in (5, 6, 7):
        got = fourier.aqfa_count(n, "mixed_gms")
        rows.append({"name": f"AQFA-{n} (mixed)", "want": str(aqfa_mixed[n]),
                     "got": str(got), "outcome": _pf(got == aqfa_mixed[n])})
        rows.append({"name": f"AQFA-{n} (local)", "want": "32/42/58 row",
                     "got": "no count model", "outcome": "EXCLUDED"})

    c = cons.tdistill().generated.cost()
    rows.append({"name": "Tdistill", "want": "15q 10eg",
                 "got": f"{c.qubits}q {c.gms_pulses}eg",
                 "outcome": _pf(c.qubits == 15 and c.gms_pulses == 10)})

    for n in range(6, 13):
        want = 6 * ((n + 1) // 2) - 9
        got = cons.toffoli_n(n).generated.cost().gms_pulses
        rows.append({"name": f"Toffoli-n formula n={n}", "want": str(want),
                     "got": str(got), "outcome": _pf(got == want)})
    return rows


def _pf(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def cmd_table1(args) -> int:
    start = time.perf_counter()
    rows = table1_rows()
    failed = [r for r in rows if r["outcome"] == "FAIL"]
    if args.json:
        checks = [{"name": r["name"],
                   "outcome": "SKIPPED" if r["outcome"] == "EXCLUDED" else r["outcome"],
                   "deviation": None, "want": r["want"], "got": r["got"]}
                  for r in rows]
        print(json.dumps(_manifest("table1", {}, start, checks)))
    else:
        width = max(len(r["name"]) for r in rows)
        for r in rows:
            print(f"{r['name']:<{width}}  {r['outcome']:<8}  "
                  f"want {r['want']}  got {r['got']}")
        print(f"{len(rows) - len(failed)} of {len(rows)} rows pass "
              f"({sum(1 for r in rows if r['outcome'] == 'EXCLUDED')} excluded)")
    return EXIT_FAIL if failed else EXIT_OK


def cmd_optimize(args) -> int:
    start = time.perf_counter()
    res = fourier.optimize_powerlaw(args.n, args.m, args.step, offset=args.offset)
    terms = " ".join(f"b{i+1}={b:g} p{i+1}={p:g}"
                     for i, (b, p) in enumerate(res.params.terms))
    print(f"best: {terms}  fidelity={res.fidelity:.9f}  "
          f"evaluations={res.evaluations}")
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for scan in res.scans:
        _write_scan(outdir / f"scan_{scan.axis}.csv", scan)
        print(f"wrote {outdir / f'scan_{scan.axis}.csv'}")
    if args.json:
        print(json.dumps(_manifest("optimize-powerlaw", vars(args), start, [
            {"name": "grid_search", "outcome": "PASS", "deviation": None}])
            | {"params": [list(t) for t in res.params.terms],
               "fidelity": res.fidelity}))
    return EXIT_OK


def _write_scan(path: Path, scan) -> None:
    lines = ["value,fidelity"]
    lines += [f"{v:.10g},{f:.12g}" for v, f in scan.grid]
    path.write_text("\n".join(lines) + "\n")


def cmd_fidelity_scan(args) -> int:
    try:
        vals = [float(x) for x in args.params.split(",")]
    except ValueError:
        raise ArgumentError("--params must be comma-separated floats b1,..,p1,..")
    if len(vals) % 2 != 0:
        raise ArgumentError("--params needs an even count: b1,..,bm,p1,..,pm")
    m = len(vals) // 2
    params = PowerLawSum(tuple((vals[i], vals[m + i]) for i in range(m)), args.offset)
    if args.axis not in [f"b{i+1}" for i in range(m)] + [f"p{i+1}" for i in range(m)]:
        raise ArgumentError(f"--axis must be one of b1..b{m}, p1..p{m}")
    scan = fourier.scan_axis(args.n, params, args.axis, args.step)
    if args.out:
        _write_scan(Path(args.out), scan)
    else:
        print("value,fidelity")
        for v, f in scan.grid:
            print(f"{v:.10g},{f:.12g}")
    return EXIT_OK


def _manifest(command, parameters, start, checks) -> dict:
    return {
        "command": command,
        "parameters": {k: v for k, v in parameters.items()
                       if not k.startswith("_") and k != "func"},
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - start, 6),
        "checks": checks,
    }


def _add_synth_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int)
    p.add_argument("--control", type=int)
    p.add_argument("--target", type=int)
    p.add_argument("--hub", type=int)
    p.add_argument("--chi", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--profile", default="exponential",
                   choices=["exponential", "power-law"])
    p.add_argument("--terms", help="power-law terms as b:p[,b:p...]")
    p.add_argument("--offset", type=int, default=0, choices=[0, 1])
    p.add_argument("--matrix", help="JSON file of 0/1 rows (linear synthesis)")


def _add_shrink_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-gms-only", action="store_true",
                   help="rewrite subset pulses to full-register pulses")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gmsforge")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="emit a construction as circuit JSON")
    p.add_argument("name")
    _add_synth_params(p)
    _add_shrink_flag(p)
    p.add_argument("--out")
    p.set_defaults(func="cmd_synth")

    p = sub.add_parser("verify", help="check a circuit against a reference")
    p.add_argument("file")
    p.add_argument("--against", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--emit-unitary", metavar="CSV")
    p.add_argument("--json", action="store_true")
    _add_synth_params(p)
    p.set_defaults(func="cmd_verify")

    p = sub.add_parser("count", help="entangling-pulse tally of a circuit")
    p.add_argument("target", help="construction name or circuit JSON file")
    p.add_argument("--json", action="store_true")
    _add_synth_params(p)
    _add_shrink_flag(p)
    p.set_defaults(func="cmd_count")

    p = sub.add_parser("table1", help="recompute the count ledger")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func="cmd_table1")

    p = sub.add_parser("optimize-powerlaw", help="grid-search the fidelity objective")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--offset", type=int, default=0, choices=[0, 1])
    p.add_argument("--out-dir", default=".")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func="cmd_optimize")

    p = sub.add_parser("fidelity-scan", help="one axis of the fidelity objective")
    p.add_argument("--axis", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--params", required=True,
                   help="comma-separated b1,..,bm,p1,..,pm")
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--offset", type=int, default=0, choices=[0, 1])
    p.add_argument("--out")
    p.set_defaults(func="cmd_fidelity_scan")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching our contract
        return int(exc.code or 0)
    try:
        # looked up when the command runs, so a replaced cmd_* is the one run
        return globals()[args.func](args)
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DenseGuardError, OutputGuardError) as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
