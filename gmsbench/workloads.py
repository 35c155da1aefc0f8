"""One workload in one process: set-up, the timed closed loop, the checks.

run.py starts this file once per set-up probe and once per measured run:

    python3 gmsbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--setup-only]

It prints one JSON line: the monotonic time at which set-up ended, the
latency of every completed op, the ops attempted and failed, every output
that disagreed with its oracle, the peak resident memory and, when traced,
the per-layer metrics per op.

Each workload is a list of ops that form one round; the loop repeats whole
rounds until ``--seconds`` have passed and at least MIN_OPS ops have run, so
every run attempts the same ops in the same proportions whatever the seed.
Ops are kept to like cost (within about 3x) so that the median is not taken
at the edge between a cluster of cheap ops and a cluster of dear ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
RESULTS = Path(__file__).resolve().parent / "results"
MIN_OPS = 40
TOL = 1e-9


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right


def run_cli(argv: list[str]) -> tuple[int, str]:
    """In-process ``gmsforge ARGV``: exit code and standard output."""
    from gmsforge import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# verify_dense
# ---------------------------------------------------------------------------

def verify_dense(rng, scratch: Path) -> tuple[list[Op], Callable[[], list[str]]]:
    """``gmsforge verify`` on three constructions, each as generated (PASS)
    and with one RZ(0.1) appended on a seeded data wire (FAIL).

    qft-gms runs at n=8: at n=9 one verify took 1.9 s against 0.5 s for
    the other two cases, too far apart to keep the median inside a cluster.
    """
    import numpy as np

    import oracles
    from gmsforge import Exponential, rz, serialize, sim
    from gmsforge import constructions as cons
    from gmsforge import fourier

    cases = (("toffoli", 7, "toffoli", cons.toffoli_n(7).generated),
             ("fanin", 9, "fanin", cons.fanin(9).generated),
             ("qft-gms", 8, "qft-ref", fourier.qft_gms(8, Exponential())))
    ops = []
    for name, n, against, circuit in cases:
        wire = int(rng.choice(circuit.data_qubits))
        variants = (("generated", circuit, "PASS", 0),
                    ("mutant", circuit.append(rz(wire, 0.1)), "FAIL", 1))
        for tag, circ, verdict, code in variants:
            path = scratch / f"{name}-{tag}.json"
            path.write_text(serialize(circ) + "\n")
            argv = ["verify", str(path), "--against", against, "--n", str(n)]
            ops.append(Op(f"{name}/{tag}", lambda argv=argv: run_cli(argv),
                          lambda out, v=verdict, c=code: _verdict(out, v, c)))

    def final_check() -> list[str]:
        problems = []
        tof = sim.unitary_of(cons.toffoli_reference(7))
        want = np.eye(1 << 7)[oracles.toffoli_dest(7)].T
        if oracles.phase_deviation(tof, want) > TOL:
            problems.append("toffoli reference(7) differs from the Toffoli matrix")
        dft = sim.unitary_of(fourier.qft_reference(8))
        if oracles.phase_deviation(dft, oracles.dft_matrix(8)) > TOL:
            problems.append("qft reference(8) differs from the bit-reversed DFT")
        return problems

    return ops, final_check


def _verdict(out, verdict: str, code: int) -> str | None:
    got_code, text = out
    if got_code != code or not text.startswith(verdict):
        return f"expected {verdict} (exit {code}), got exit {got_code}: {text.strip()}"
    return None


# ---------------------------------------------------------------------------
# stimulus_wide
# ---------------------------------------------------------------------------

# Stimuli per op, chosen so that every op costs 0.5-0.8 s on the reference
# host (one 16-qubit qft_gms pass is the dearest at about 0.76 s).
STIMULI = {"toffoli_n(11)": 2, "qft_gms(16)": 1, "qfa_gms(8)": 1,
           "phase_polynomial_identity(17)": 1, "tdistill": 8}


def stimulus_wide(rng, scratch: Path) -> tuple[list[Op], Callable[[], list[str]]]:
    """``sim.apply`` of seeded random states through circuits of 15-17
    qubits, past the 12-qubit dense guard."""
    import oracles
    from gmsforge import Exponential, sim
    from gmsforge import constructions as cons
    from gmsforge import fourier

    theta = float(rng.uniform(0.1, math.pi))
    tof = cons.toffoli_n(11).generated
    n_anc = tof.n_qubits - 11
    cases = {
        "toffoli_n(11)": (tof, 11, lambda s: oracles.embed_zero_ancillas(
            oracles.permute(s, oracles.toffoli_dest(11)), n_anc)),
        "qft_gms(16)": (fourier.qft_gms(16, Exponential()), 16,
                        oracles.dft_bitreversed),
        "qfa_gms(8)": (fourier.qfa_gms(8, Exponential()), 16,
                       lambda s: oracles.permute(s, oracles.adder_dest(8))),
        "phase_polynomial_identity(17)": (
            cons.phase_polynomial_identity(17, theta), 17,
            lambda s: oracles.hamming_phase(17, theta) * s),
        "tdistill": (cons.tdistill().generated, 15,
                     lambda s: oracles.permute(s, oracles.tdistill_dest())),
    }
    ops = []
    for name, (circuit, width, oracle) in cases.items():
        data = [oracles.random_state(rng, width) for _ in range(STIMULI[name])]
        ancillas = circuit.n_qubits - width
        states = [oracles.embed_zero_ancillas(d, ancillas) for d in data]
        want: list = []  # filled at the first check, outside set-up

        def run(circuit=circuit, states=states):
            return [sim.apply(circuit, s) for s in states]

        def check(outs, data=data, oracle=oracle, want=want, ancillas=ancillas):
            if not want:
                want.extend(oracle(d) for d in data)
            for got, expected in zip(outs, want):
                if ancillas:
                    leak = float(abs(got.reshape(-1, 1 << ancillas)[:, 1:]).max())
                    if leak > TOL:
                        return f"ancilla leakage {leak:.3e}"
                dev = oracles.phase_deviation(got, expected)
                if dev > TOL:
                    return f"deviation {dev:.3e} from the oracle"
            return None

        ops.append(Op(name, run, check))
    return ops, lambda: []


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------

# The paper's Table 1, held here rather than read from the "want" column
# that ``gmsforge table1`` prints.
TOFFOLI = {4: (5, 3), 8: (11, 15), 9: (13, 21), 10: (14, 21)}  # qubits at most, pulses
AQFT = {10: (30, 17), 11: (34, 19), 12: (38, 21), 13: (42, 23), 14: (46, 25),
        15: (50, 27)}  # local, mixed
AQFA_MIXED = {5: 23, 6: 29, 7: 35}
TDISTILL = (15, 10)  # qubits, pulses
TOFFOLI_FORMULA = {6: 9, 7: 15, 8: 15, 9: 21, 10: 21, 11: 27, 12: 27}
POWERLAW = ((0.4, 2.5), (-0.5, 3.4))  # the paper's two-term optimum
GRID_STEP = 0.1

_ROW = re.compile(r"^(?P<name>.+?)\s{2,}(?P<outcome>\S+)\s+want .*?  got (?P<got>.*)$")
_BEST = re.compile(r"b1=(\S+) p1=(\S+) b2=(\S+) p2=(\S+)")


def ledger(rng, scratch: Path) -> tuple[list[Op], Callable[[], list[str]]]:
    """``gmsforge table1``, ``gmsforge optimize-powerlaw --n 10 --m 2`` and
    the gms_shrink -> spin_echo_cancel -> cancel_inverse_gms round trip on
    qft_gms(8) under a seeded one-term power-law profile.

    A round is [table1], [optimize-powerlaw + round trip], [round trip]:
    the three cost 0.4-0.8 s each, and the two round-trip ops make the
    median fall inside their cluster rather than between two."""
    from gmsforge import PowerLawSum
    from gmsforge import constructions as cons
    from gmsforge import fourier

    b = float(rng.choice([-0.6, -0.5, -0.4, -0.3, 0.3, 0.4, 0.5, 0.6]))
    p = round(float(rng.integers(20, 36)) * 0.1, 1)
    original = fourier.qft_gms(8, PowerLawSum(((b, p),)))
    optimize = ["optimize-powerlaw", "--n", "10", "--m", "2",
                "--out-dir", str(scratch)]

    def round_trip():
        shrunk = cons.gms_shrink(original)
        return shrunk, cons.cancel_inverse_gms(cons.spin_echo_cancel(shrunk))

    def check_round_trip(out):
        shrunk, back = out
        n = original.n_qubits
        pulses = [g for g in shrunk.gates if g.kind == "GMS"]
        want = sum(2 ** (n - len(g.qubits)) for g in original.gates if g.kind == "GMS")
        if any(len(g.qubits) != n for g in pulses) or len(pulses) != want:
            return f"shrunk circuit has {len(pulses)} pulses, want {want} full-register"
        got, start = _pulses(back), _pulses(original)
        return None if got == start else f"round trip ends at {got} pulses, not {start}"

    ops = [Op("table1", lambda: run_cli(["table1"]), _check_table1),
           Op("optimize+round-trip", lambda: (run_cli(optimize), round_trip()),
              lambda out: _check_optimize(out[0]) or check_round_trip(out[1])),
           Op("round-trip", round_trip, check_round_trip)]
    return ops, lambda: []


def _pulses(circuit) -> int:
    return sum(1 for g in circuit.gates if g.kind == "GMS")


def _check_table1(out) -> str | None:
    code, text = out
    if code != 0:
        return f"table1 exited {code}"
    rows = {}
    for line in text.splitlines():
        m = _ROW.match(line)
        if m:
            rows[m["name"]] = (m["outcome"], m["got"])
    want = {}
    for n, (qubits, pulses) in TOFFOLI.items():
        want[f"Toffoli-{n}"] = lambda got, q=qubits, e=pulses: _qubits_pulses(got, q, e, False)
    for n, (local, mixed) in AQFT.items():
        want[f"AQFT-{n}"] = lambda got, s=f"local {local} / mixed {mixed}": got == s
    for n, count in AQFA_MIXED.items():
        want[f"AQFA-{n} (mixed)"] = lambda got, s=str(count): got == s
        want[f"AQFA-{n} (local)"] = None  # no count model; must stay EXCLUDED
    want["Tdistill"] = lambda got: _qubits_pulses(got, *TDISTILL, True)
    for n, count in TOFFOLI_FORMULA.items():
        want[f"Toffoli-n formula n={n}"] = lambda got, s=str(count): got == s
    if set(rows) != set(want):
        return f"table1 rows {sorted(rows)} differ from {sorted(want)}"
    for name, agrees in want.items():
        outcome, got = rows[name]
        if agrees is None:
            if outcome != "EXCLUDED":
                return f"{name} is {outcome}, not EXCLUDED"
        elif outcome != "PASS" or not agrees(got):
            return f"{name}: got {got!r} ({outcome}), paper disagrees"
    return None


def _qubits_pulses(got: str, qubits: int, pulses: int, exact: bool) -> bool:
    m = re.fullmatch(r"(\d+)q (\d+)eg", got)
    if not m:
        return False
    q, e = int(m[1]), int(m[2])
    return e == pulses and (q == qubits if exact else q <= qubits)


def _check_optimize(out) -> str | None:
    code, text = out
    m = _BEST.search(text)
    if code != 0 or not m:
        return f"optimize-powerlaw exited {code}: {text[:200]!r}"
    b1, p1, b2, p2 = map(float, m.groups())
    found = ((b1, p1), (b2, p2))
    for paper in (POWERLAW, POWERLAW[::-1]):
        if all(abs(x - y) <= GRID_STEP + 1e-9
               for term, want in zip(found, paper) for x, y in zip(term, want)):
            return None
    return f"optimizer found {found}, paper has {POWERLAW}"


WORKLOADS = {"verify_dense": verify_dense, "stimulus_wide": stimulus_wide,
             "ledger": ledger}


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def closed_loop(ops: list[Op], seconds: float, tracer) -> dict:
    """One client: each op starts when the previous one has been checked.
    Only the ops are timed; checks run between them."""
    latencies, problems, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    while attempted < MIN_OPS or time.perf_counter() - start < seconds:
        for op in ops:
            attempted += 1
            if tracer:
                tracer.op, tracer.active = attempted, True
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # a failed op is counted and the loop goes on
                failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            finally:
                elapsed = time.perf_counter() - t0
                if tracer:
                    tracer.active = False
            latencies.append(elapsed)
            problem = op.check(out)
            if problem:
                problems.append(f"{op.label}: {problem}")
    return {"latencies": latencies, "attempted": attempted, "failed": failed,
            "problems": problems}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import gmsforge
    if Path(gmsforge.__file__).resolve().parent != ROOT / "src" / "gmsforge":
        raise SystemExit(f"gmsforge imported from {gmsforge.__file__}, "
                         f"not from {ROOT / 'src'}")
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    scratch = RESULTS / f"scratch-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        rng = np.random.default_rng(args.seed)
        ops, final_check = WORKLOADS[args.workload](rng, scratch)
        ready = time.monotonic()
        result = {"ready": ready}
        if not args.setup_only:
            result |= closed_loop(ops, args.seconds, tracer)
            result["peak_rss_mib"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            result["problems"] += final_check()
            if tracer:
                result["layers"] = tracer.per_op(len(result["latencies"]))
                tracer.dump(RESULTS / f"TRACE_{args.workload}.jsonl")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
