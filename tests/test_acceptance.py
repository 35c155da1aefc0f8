"""Acceptance suite: one test per release criterion, one printed verdict
line each (run with -s to see them inline).

Tolerances are pinned here and nowhere else: equivalence checks at 1e-9,
pulse-count and ledger checks exact, optimizer peaks within one 0.1 grid
step of the known optimum.
"""

import math
import random
import time

import numpy as np

from conftest import (basis_state, fan_gms_cost, gf2_mul, gf2_transpose,
                      gms_count_linear, random_circuit, random_echo_circuit,
                      random_invertible_gf2, stabilizer_gms_bound)
from gmsforge import constructions as cons
from gmsforge import fourier, gf2, sim
from gmsforge.circuit import Circuit, Exponential, PowerLawSum, Uniform, gms, xx
from gmsforge.cli import table1_rows

TOL = 1e-9
PAPER_OPT = PowerLawSum(((0.4, 2.5), (-0.5, 3.4)), 0)


def _verdict(num, label, ok, extra=""):
    print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'} {extra}")
    assert ok, f"criterion {num}: {label} {extra}"


def _equiv(spec):
    return sim.equiv_on_ancilla(spec.generated, spec.act.matrix(), TOL).ok


def test_criterion_1_construction_equivalence():
    start = time.perf_counter()
    ok = True
    for n in (2, 3, 4, 5, 6):
        ok &= _equiv(cons.fanout(n, 0))
        ok &= _equiv(cons.fanin(n, 0))
    for n in (3, 4, 5, 6):
        circ = cons.star_coupling(n, n - 1, math.pi / 2)
        ref = Circuit(n, tuple(xx(n - 1, j, math.pi / 2) for j in range(n - 1)))
        ok &= sim.equiv_phase(sim.unitary_of(circ), sim.unitary_of(ref), TOL).ok
    ok &= _equiv(cons.cnot_via_xx())
    for n in (3, 4):
        ok &= _equiv(cons.cnot_via_4gms(n, 0, n - 1))
    ok &= _equiv(cons.toffoli3_gms())
    ok &= _equiv(cons.toffoli4_7gms())
    ok &= _equiv(cons.ccz_3gms())
    ok &= _equiv(cons.cccz_4gms())
    ok &= _equiv(cons.cccz_3gms())
    # exhaustive on the moved wires; from n = 10 against the action, since
    # the dense matrix is 16 * 4^n bytes (256 MiB at n = 12)
    for n in range(5, 13):
        spec = cons.toffoli_n(n)
        ok &= _equiv(spec) if n < 10 else sim.equiv_on_ancilla(
            spec.generated, spec.act, TOL).ok
    elapsed = time.perf_counter() - start
    _verdict(1, "construction equivalence", ok and elapsed < 60,
             f"({elapsed:.1f} s)")


def test_criterion_2_rewrite_soundness():
    rng = random.Random(2024)
    ok = True

    for _ in range(200):  # subset pulses -> full-register pulses
        n = rng.choice([3, 4, 5, 6])
        circ = random_circuit(rng, n, 8)
        out = cons.gms_shrink(circ)
        ok &= sim.equiv_phase(sim.unitary_of(out), sim.unitary_of(circ), TOL).ok

    for _ in range(200):  # echo deletion
        n = rng.choice([2, 3, 4, 5, 6])
        circ = random_echo_circuit(rng, n, 5)
        out = cons.spin_echo_cancel(circ)
        ok &= sim.equiv_phase(sim.unitary_of(out), sim.unitary_of(circ), TOL).ok

    for _ in range(200):  # inverse pulse via pi - chi, exact including phase
        n = rng.choice([2, 3, 4, 5, 6])
        chi = rng.uniform(0, math.pi)
        rewritten = cons.gms_dagger_rewrite(n, chi)
        ref = Circuit(n, (gms(range(n), Uniform(-chi)),))
        dev = np.max(np.abs(sim.unitary_of(rewritten) - sim.unitary_of(ref)))
        ok &= dev <= TOL

    _verdict(2, "rewrite soundness", ok)


def test_criterion_3_gate_count_ledger():
    rows = table1_rows()
    bad = [r["name"] for r in rows if r["outcome"] == "FAIL"]
    _verdict(3, "gate-count ledger", not bad,
             f"({len(rows)} rows, failing: {bad or 'none'})")


def test_criterion_4_stabilizer_counts():
    ok = True
    # exhaustive unit-triangular matrices, n <= 4, both orientations
    for n in (2, 3, 4):
        positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bits in range(1 << len(positions)):
            rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for k, (i, j) in enumerate(positions):
                if (bits >> k) & 1:
                    rows[i][j] = 1
            upper = gf2.Gf2Matrix.from_rows(rows)
            for t in (upper, gf2_transpose(upper)):
                ok &= fan_gms_cost(gf2.triangular_to_fans(t)) <= 2 * n - 3

    rng = random.Random(4100)
    for _ in range(100):
        n = rng.choice([3, 4, 5, 6, 7, 8])
        m = random_invertible_gf2(rng, n)
        ok &= gms_count_linear(m) <= 4 * n - 6
        layers, perm = gf2.synthesize_linear(m)
        resynth = gf2_mul(gf2.permutation_matrix(perm), gf2.linear_simulate(layers, n))
        ok &= resynth == m

    for n in (2, 3, 7, 15, 40):
        total, breakdown = stabilizer_gms_bound(n)
        ok &= total == 12 * n - 18 and sum(breakdown.values()) == total

    _verdict(4, "stabilizer counts", ok)


def test_criterion_5_fourier_exactness():
    ok = True
    for n in range(2, 9):
        u = sim.unitary_of(fourier.qft_gms(n, Exponential()))
        v = sim.unitary_of(fourier.qft_reference(n))
        ok &= sim.equiv_phase(u, v, TOL).ok

    for n in (2, 3, 4):
        circ = fourier.qfa_gms(n, Exponential())
        tot = 2 * n
        for a in range(1 << n):
            for b in range(1 << n):
                idx = _adder_index(n, a, b)
                out = sim.apply(circ, basis_state(tot, idx))
                hit = int(np.argmax(np.abs(out)))
                want = _adder_index(n, a, (a + b) % (1 << n))
                ok &= hit == want and abs(abs(out[hit]) - 1) <= TOL

    _verdict(5, "fourier exactness", ok)


def _adder_index(n, a, b):
    tot = 2 * n
    idx = 0
    for j in range(n):
        if (a >> j) & 1:
            idx |= 1 << (tot - 1 - j)
        if (b >> j) & 1:
            idx |= 1 << (tot - 1 - (n + j))
    return idx


def test_criterion_6_power_law_optimum():
    start = time.perf_counter()
    ok = True
    targets = {"b1": 0.4, "b2": -0.5, "p1": 2.5, "p2": 3.4}
    for n in (10, 12, 14):
        for axis, want in targets.items():
            scan = fourier.scan_axis(n, PAPER_OPT, axis, step=0.1)
            ok &= abs(scan.peak() - want) <= 0.1 + 1e-9
        ok &= fourier.fidelity_formula(n, PAPER_OPT) >= 0.99

    grid_start = time.perf_counter()
    res = fourier.optimize_powerlaw(10, 2, grid_step=0.1)
    grid_elapsed = time.perf_counter() - grid_start
    ok &= grid_elapsed < 300  # full grid, single-threaded
    ok &= res.fidelity >= fourier.fidelity_formula(10, PAPER_OPT) - 1e-12

    _verdict(6, "power-law optimum", ok,
             f"(grid {grid_elapsed:.2f} s, total {time.perf_counter()-start:.2f} s)")


def test_criterion_7_scope_note():
    # no in-scope claim needs hardware; the one unbindable published plot
    # (its vertical-axis metric is unstated) is covered by the peak-location
    # and peak-height properties of criterion 6
    _verdict(7, "nothing out of desk-scale scope", True, "(informational)")
