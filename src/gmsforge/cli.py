"""Command-line front end: synthesis, verification, counting, the count
ledger, and the power-law optimizer.

``synth``, ``count`` and ``verify --against`` pass a construction's builder
the given flags named after its parameters: its signature alone states them.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
guard tripped: every guard raises ``GuardError`` with one message naming
the guard, the size asked and the limit, and ``main`` prints it.  A path
the user named that cannot be read or written is a usage error naming the
flag and the path: every such path goes through ``_user_path``, which
``_read`` and ``_write`` wrap, and an output path is tried (``_output``),
with nothing made, before the work whose result it would hold.
Any other exception is an internal error and propagates.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, constructions as cons, fourier, gf2
from .circuit import (ArgumentError, Circuit, Exponential, GuardError, PowerLawSum,
                      SchemaError, deserialize, guard, serialize)
from .sim import equiv_on_ancilla, unitary_of

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_GUARD = 0, 1, 2, 3


@contextlib.contextmanager
def _user_path(flag: str, path):
    """``path`` as the user named it with ``flag``: a failure to read or
    write it is a usage error naming both, not a verification failure."""
    try:
        yield Path(path)
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ArgumentError(f"{flag} {path}: {reason}") from None


def _read(flag: str, path) -> str:
    with _user_path(flag, path) as p:
        return p.read_text()


def _write(flag: str, path, text: str) -> None:
    with _user_path(flag, path) as p:
        p.write_text(text)


def _output(flag: str, path, directory: bool = False) -> Path:
    """``path`` tried before the work whose result it will hold, and nothing
    made: an existing path must be a directory we may write when
    ``directory``, else a file we may write; a missing directory needs its
    nearest existing parent, a missing file its own parent, to be a
    directory we may write."""
    with _user_path(flag, path) as p:
        if directory or not p.exists():
            near = (next(q for q in (p, *p.absolute().parents) if q.exists())
                    if directory else p.absolute().parent)
            if not (near.is_dir() and os.access(near, os.W_OK | os.X_OK)):
                raise NotADirectoryError(f"{near} is not a directory we may write")
        elif p.is_dir() or not os.access(p, os.W_OK):
            raise PermissionError(f"{p} is not a file we may write")
    return p


def _profile_from_args(args):
    if args.profile == "exponential":
        return Exponential()
    if not args.terms:
        raise ArgumentError("power-law profile needs --terms b:p[,b:p...]")
    try:
        terms = tuple((float(b), float(p)) for b, p in
                      (chunk.split(":") for chunk in args.terms.split(",")))
    except ValueError:
        raise ArgumentError(
            f"--terms must read b:p[,b:p...], not {args.terms!r}") from None
    return _power_law(terms, args.offset, "--terms")


def _power_law(terms, offset: int, flag: str) -> PowerLawSum:
    """The profile of ``terms``; a refusal names the flag they came from."""
    try:
        return PowerLawSum(terms, offset)
    except ArgumentError as exc:
        raise ArgumentError(f"{flag}: {exc}") from None


def _synth_linear(matrix: str) -> Circuit:
    """Fan circuit of the GF(2) matrix whose 0/1 rows the JSON file holds."""
    text = _read("--matrix", matrix)
    try:
        m = gf2.Gf2Matrix.from_rows(json.loads(text))
    except (json.JSONDecodeError, ArgumentError) as exc:
        raise ArgumentError(f"--matrix {matrix}: {exc}") from None
    layers, perm = gf2.synthesize_linear(m)
    gates = []
    for layer in layers:
        gates += cons._fan_gates(layer.control, sorted(layer.targets))
    if list(perm) != list(range(m.n)):
        # the residual stage is free wire relabeling, not gates
        print(f"note: output wire relabeling (zero pulse cost): {list(perm)}",
              file=sys.stderr)
    return Circuit(m.n, tuple(gates))


# name -> (module, builder name); the builder is looked up when it runs, so
# a replaced module function is the one called
SYNTH = {
    "fanout": (cons, "fanout"),
    "fanin": (cons, "fanin"),
    "star": (cons, "star_coupling"),
    "parity-prefix": (cons, "parity_measure_prefix"),
    "cnot-xx": (cons, "cnot_via_xx"),
    "cnot-4gms": (cons, "cnot_via_4gms"),
    "tdistill": (cons, "tdistill"),
    "phase-poly": (cons, "phase_polynomial_identity"),
    "ccz-3gms": (cons, "ccz_3gms"),
    "cccz-4gms": (cons, "cccz_4gms"),
    "cccz-3gms": (cons, "cccz_3gms"),
    "toffoli3": (cons, "toffoli3_gms"),
    "toffoli4-7gms": (cons, "toffoli4_7gms"),
    "toffoli": (cons, "toffoli_n"),
    "qft-ref": (fourier, "qft_reference_spec"),
    "qft-gms": (fourier, "qft_gms"),
    "qfa-gms": (fourier, "qfa_gms"),
    "gms-dagger": (cons, "gms_dagger_rewrite"),
    "linear": (sys.modules[__name__], "_synth_linear"),
}


def _resolve(target: str, args, flag: str) -> Circuit | cons.ConstructionSpec:
    """A construction name always means the construction: its builder gets
    the given flags named after its parameters, with ``profile`` built from
    --profile, --terms and --offset.  Any other string is a circuit JSON
    path, which ``flag`` named."""
    if target not in SYNTH:
        if not Path(target).exists():
            raise ArgumentError(f"{target!r} is neither a file nor one of: "
                                + " ".join(sorted(SYNTH)))
        return deserialize(_read(flag, target))
    module, attr = SYNTH[target]
    build = getattr(module, attr)
    kwargs = {}
    for param in inspect.signature(build).parameters.values():
        if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
            continue  # a stand-in builder's *args, **kwargs name no flag
        value = (_profile_from_args(args) if param.name == "profile"
                 else getattr(args, param.name))
        if isinstance(value, float) and not math.isfinite(value):
            raise ArgumentError(f"--{param.name} must be finite, not {value}")
        if value is not None:
            kwargs[param.name] = value
        elif param.default is param.empty:
            raise ArgumentError(f"{target} requires --{param.name}")
    return build(**kwargs)


def _emitted(built, args) -> Circuit:
    """The circuit ``synth`` and ``count`` report, shrunk by --max-gms-only
    (``gms_shrink`` guards its pulse count)."""
    circ = built.generated if isinstance(built, cons.ConstructionSpec) else built
    return cons.gms_shrink(circ) if args.max_gms_only else circ


def cmd_synth(args) -> int:
    text = serialize(_emitted(_resolve(args.name, args, "name"), args))
    if args.out:
        _write("--out", args.out, text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    start = time.perf_counter()
    if not 0 < args.tol < math.inf:
        raise ArgumentError(f"--tol must be finite and above 0, not {args.tol}")
    circuit = deserialize(_read("file", args.file))
    if args.emit_unitary:
        guard("dump", circuit.n_qubits, 6, "qubits")
        _output("--emit-unitary", args.emit_unitary)  # written after the check
    read = time.perf_counter()
    ref = _resolve(args.against, args, "--against")
    # a construction's action, whose rows the check reads as it goes (a
    # permutation is compared in place), or a circuit's dense unitary
    reference, how = ((ref.act, "oracle") if isinstance(ref, cons.ConstructionSpec)
                      else (unitary_of(ref), "circuit"))
    built = time.perf_counter()
    res = equiv_on_ancilla(circuit, reference, args.tol)
    checked = time.perf_counter()
    outcome = "PASS" if res.ok else f"FAIL ({res.failure})"
    print(f"{outcome} phase={res.phase.real:+.9f}{res.phase.imag:+.9f}j "
          f"max_deviation={res.max_deviation:.3e}")
    if args.emit_unitary:
        _dump_unitary(unitary_of(circuit), args.emit_unitary)
    if args.json:
        n, d = circuit.n_qubits, reference.shape[0].bit_length() - 1
        print(json.dumps(_manifest("verify", vars(args), start, [
            {"name": f"{args.file} vs {args.against}",
             "outcome": "PASS" if res.ok else "FAIL",
             "deviation": res.max_deviation, "phase": [res.phase.real, res.phase.imag],
             "leakage": res.leakage, "failure": res.failure,
             "method": "dense" if d == n else "ancilla", "reference": how,
             "moved_wires": res.moved_wires,
             "columns_bytes": 16 << (len(res.moved_wires) + d),
             "pass_bytes": res.pass_bytes, "passes": res.passes,
             "plan_bytes": res.plan_bytes, "compile_s": round(res.compile_s, 6),
             "read_s": round(read - start, 6), "reference_s": round(built - read, 6),
             "reference_bytes": reference.nbytes if isinstance(reference, np.ndarray) else 0,
             "check_s": round(checked - built, 6)}])))
    return EXIT_OK if res.ok else EXIT_FAIL


def _dump_unitary(u: np.ndarray, path: str) -> None:
    # one row per line; each entry contributes a "re,im" pair of columns
    lines = []
    for row in u:
        lines.append(",".join(f"{z.real:.17g},{z.imag:.17g}" for z in row))
    _write("--emit-unitary", path, "\n".join(lines) + "\n")


def cmd_count(args) -> int:
    circuit = _emitted(_resolve(args.source, args, "target"), args)
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
    tof = {n: cons.toffoli_n(n).generated.cost() for n in (4, *range(6, 13))}

    def tof_row(n, q_bound, eg):
        c = tof[n]
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
        got = tof[n].gms_pulses
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
    # made only after the search, so a refused argument creates nothing
    outdir = _output("--out-dir", args.out_dir, directory=True)
    res = fourier.optimize_powerlaw(args.n, args.m, args.step, offset=args.offset)
    with _user_path("--out-dir", args.out_dir):
        outdir.mkdir(parents=True, exist_ok=True)
    terms = " ".join(f"b{i+1}={b:g} p{i+1}={p:g}"
                     for i, (b, p) in enumerate(res.params.terms))
    print(f"best: {terms}  fidelity={res.fidelity:.9f}  "
          f"evaluations={res.evaluations}")
    for scan in res.scans:
        path = outdir / f"scan_{scan.axis}.csv"
        _write("--out-dir", path, _scan_csv(scan))
        print(f"wrote {path}")
    if args.json:
        print(json.dumps(_manifest("optimize-powerlaw", vars(args), start, [
            {"name": "grid_search", "outcome": "PASS", "deviation": None,
             "bound_solves": res.bound_solves, "b_tuples": res.b_tuples,
             "pruned_p_tuples": res.pruned}])
            | {"params": [list(t) for t in res.params.terms],
               "fidelity": res.fidelity}))
    return EXIT_OK


def _scan_csv(scan) -> str:
    return "".join(["value,fidelity\n"] + [f"{v:.10g},{f:.12g}\n" for v, f in scan.grid])


def cmd_fidelity_scan(args) -> int:
    try:
        vals = [float(x) for x in args.params.split(",")]
    except ValueError:
        raise ArgumentError("--params must be comma-separated floats b1,..,p1,..")
    if len(vals) % 2 != 0:
        raise ArgumentError("--params needs an even count: b1,..,bm,p1,..,pm")
    m = len(vals) // 2
    params = _power_law(tuple(zip(vals[:m], vals[m:])), args.offset, "--params")
    if args.axis not in [f"b{i+1}" for i in range(m)] + [f"p{i+1}" for i in range(m)]:
        raise ArgumentError(f"--axis must be one of b1..b{m}, p1..p{m}")
    scan = fourier.scan_axis(args.n, params, args.axis, args.step)
    if args.out:
        _write("--out", args.out, _scan_csv(scan))
    else:
        print(_scan_csv(scan), end="")
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
    p.add_argument("name", choices=SYNTH)
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
    p.add_argument("source", metavar="target",
                   help="construction name or circuit JSON file")
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
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
