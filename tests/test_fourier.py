import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gmsforge import fourier, sim
from gmsforge.circuit import ArgumentError, Exponential, GuardError, PowerLawSum, Uniform

PI = math.pi
PAPER_OPT = PowerLawSum(((0.4, 2.5), (-0.5, 3.4)), 0)


def dft_bit_reversed(n):
    dim = 1 << n
    omega = np.exp(2j * PI / dim)
    dft = omega ** np.outer(np.arange(dim), np.arange(dim)) / math.sqrt(dim)
    rev = [int(format(k, f"0{n}b")[::-1], 2) for k in range(dim)]
    return dft[:, rev]


# -- reference transform ------------------------------------------------------

def test_qft_reference_n1_is_h():
    circ = fourier.qft_reference(1)
    assert [g.kind for g in circ.gates] == ["H"]


def test_qft_reference_matches_dft_oracle():
    for n in (1, 2, 3, 4, 5):
        u = sim.unitary_of(fourier.qft_reference(n))
        assert np.max(np.abs(u - dft_bit_reversed(n))) < 1e-12, n


def test_qft_reference_cp_count():
    circ = fourier.qft_reference(5)
    assert sum(1 for g in circ.gates if g.kind == "CP") == 10


# -- pulse-based transform ----------------------------------------------------

def test_qft_gms_exact_small():
    for n in (2, 3, 4, 5, 6):
        u = sim.unitary_of(fourier.qft_gms(n, Exponential()))
        v = sim.unitary_of(fourier.qft_reference(n))
        assert sim.equiv_phase(u, v, 1e-9).ok, n


def test_qft_gms_pulse_counts():
    assert fourier.qft_gms(10, Exponential()).cost().gms_pulses == 18
    assert fourier.qft_gms(2, Exponential()).cost().gms_pulses == 2
    two_terms = fourier.qft_gms(6, PAPER_OPT)
    assert two_terms.cost().gms_pulses == 2 * 2 * (6 - 1)


def test_qft_gms_rejects_other_profiles():
    with pytest.raises(ValueError):
        fourier.qft_gms(4, Uniform(1.0))


def _adder_index(n, a, b):
    # little-endian registers: wire j carries bit j; wire 0 is the index MSB
    tot = 2 * n
    idx = 0
    for j in range(n):
        if (a >> j) & 1:
            idx |= 1 << (tot - 1 - j)
        if (b >> j) & 1:
            idx |= 1 << (tot - 1 - (n + j))
    return idx


def assert_adds(circ, n, a, b):
    out = sim.apply(circ, sim.basis_state(2 * n, _adder_index(n, a, b)))
    hit = int(np.argmax(np.abs(out)))
    assert hit == _adder_index(n, a, (a + b) % (1 << n)), (a, b)
    assert abs(abs(out[hit]) - 1) < 1e-9


def test_qfa_exhaustive_n2():
    circ = fourier.qfa_gms(2, Exponential())
    for a in range(4):
        for b in range(4):
            assert_adds(circ, 2, a, b)


def test_qfa_three_plus_five():
    circ = fourier.qfa_gms(3, Exponential())
    assert_adds(circ, 3, 3, 5)  # wraps to 0


def test_qfa_zero_is_identity_on_b():
    circ = fourier.qfa_gms(3, Exponential())
    for b in (0, 3, 7):
        assert_adds(circ, 3, 0, b)


def test_qfa_random_pairs_wider():
    import random
    rng = random.Random(56)
    for n in (5, 6):
        circ = fourier.qfa_gms(n, Exponential())
        for _ in range(100):
            a = rng.randrange(1 << n)
            b = rng.randrange(1 << n)
            assert_adds(circ, n, a, b)


def test_power_law_adder_needs_offset_1():
    # the adder's nearest coupling sits at exponent 0, where offset 0 divides by 0**p
    with pytest.raises(ArgumentError, match="--offset 1"):
        fourier.qfa_gms(3, PowerLawSum(((0.4, 2.5),), 0))
    exact = fourier.qfa_gms(3, Exponential()).cost().gms_pulses
    for terms in (((0.4, 2.5),), PAPER_OPT.terms):
        got = fourier.qfa_gms(3, PowerLawSum(terms, 1)).cost().gms_pulses
        assert got == exact * len(terms) == 14 * len(terms)


# -- fidelity objective ---------------------------------------------------------

def test_fidelity_formula_exact_termwise():
    # only the j = 1 term carries weight at n = 2; 1/(2*1^p) = 1/2 matches
    assert fourier.fidelity_formula(2, PowerLawSum(((2.0, 3.0),), 0)) == 1.0


def test_fidelity_formula_at_optimum():
    for n in (10, 12, 14):
        assert fourier.fidelity_formula(n, PAPER_OPT) >= 0.99


def test_fidelity_formula_single_term_lower():
    single = PowerLawSum(((0.6, 4.0),), 0)
    assert fourier.fidelity_formula(10, single) < fourier.fidelity_formula(10, PAPER_OPT)


def test_fidelity_formula_term_permutation_invariant():
    flipped = PowerLawSum(((-0.5, 3.4), (0.4, 2.5)), 0)
    for n in (5, 10):
        assert fourier.fidelity_formula(n, flipped) == \
            fourier.fidelity_formula(n, PAPER_OPT)


def test_fidelity_formula_rejects_zero_b():
    with pytest.raises(ValueError):
        PowerLawSum(((0.0, 2.0),), 0)


# -- optimizer -------------------------------------------------------------------

def test_optimizer_scans_peak_at_known_optimum():
    res = fourier.optimize_powerlaw(10, 2)
    assert res.fidelity >= fourier.fidelity_formula(10, PAPER_OPT) - 1e-12
    # the four axis scans through the found optimum peak on-grid
    for scan in res.scans:
        values = [v for v, _ in scan.grid]
        assert scan.peak() in values


def test_scan_through_paper_point():
    for axis, want in (("b1", 0.4), ("b2", -0.5), ("p1", 2.5), ("p2", 3.4)):
        scan = fourier.scan_axis(10, PAPER_OPT, axis)
        assert abs(scan.peak() - want) < 0.1 + 1e-9


def test_optimizer_m1_stays_in_box():
    res = fourier.optimize_powerlaw(10, 1)
    (b, p), = res.params.terms
    assert abs(b) <= 0.6 and 1.5 <= p <= 4.0 and b != 0


def test_optimizer_degenerate_box():
    res = fourier.optimize_powerlaw(8, 1, grid_step=0.1,
                                    b_box=(0.4, 0.4), p_box=(2.5, 2.5))
    assert res.params.terms == ((0.4, 2.5),)


def test_optimizer_monotone_in_box():
    narrow = fourier.optimize_powerlaw(10, 1, b_box=(0.1, 0.3))
    wide = fourier.optimize_powerlaw(10, 1, b_box=(-0.6, 0.6))
    assert wide.fidelity >= narrow.fidelity


def test_optimizer_m3_runs():
    # three terms are constrained (each contributes |1/b| >= 5/3 at j = 1,
    # so they must cancel), which keeps the reachable fidelity below m = 2
    res = fourier.optimize_powerlaw(6, 3, grid_step=0.1)
    assert res.fidelity > 0.9
    assert len(res.params.terms) == 3
    assert all(abs(b) <= 0.6 and 1.5 <= p <= 4.0 for b, p in res.params.terms)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 6, 10, 14])
@pytest.mark.parametrize("offset", [0, 1])
def test_lattice_matches_fidelity_formula(m, n, offset):
    # |b| >= 0.4 and p >= 2.5 keep every fidelity above underflow at m = 3
    bs, ps = [-0.6, -0.4, 0.4, 0.6], [2.5, 3.0, 3.5]
    combos = [(b, p) for b in bs for p in ps]
    expo = fourier._lattice(n, bs, ps, offset, m)
    assert expo.shape == (len(combos),) * m
    rng = np.random.default_rng(1000 * m + 10 * n + offset)
    for flat in rng.choice(expo.size, size=min(expo.size, 200), replace=False):
        idx = np.unravel_index(flat, expo.shape)
        params = PowerLawSum(tuple(combos[i] for i in idx), offset)
        want = -math.log(fourier.fidelity_formula(n, params)) / PI**2
        assert abs(expo[idx] - want) < 1e-12


@pytest.mark.parametrize("m", [1, 2])
def test_optimizer_matches_brute_force(m):
    n, step = 6, 0.2
    bs = fourier._grid(-0.6, 0.6, step, skip_zero=True)
    ps = fourier._grid(1.5, 4.0, step, skip_zero=False)
    points = itertools.product([(b, p) for b in bs for p in ps], repeat=m)
    best = max(points, key=lambda t: fourier.fidelity_formula(n, PowerLawSum(t, 0)))
    res = fourier.optimize_powerlaw(n, m, grid_step=step)
    assert res.params.terms == tuple(sorted(best))
    assert res.evaluations == (len(bs) * len(ps)) ** m


@pytest.mark.parametrize("n, m, terms, evaluations", [
    (10, 1, ((0.6, 2.6),), 312),
    (10, 2, ((-0.5, 3.4), (0.4, 2.5)), 97344),
    (6, 3, ((0.5, 3.6), (0.3, 2.5), (-0.2, 3.3)), 476832),
])
def test_optimizer_pinned_results(n, m, terms, evaluations):
    res = fourier.optimize_powerlaw(n, m)
    assert res.params.terms == terms and res.evaluations == evaluations


def point_by_point_descend(n, seeds, bs, ps):
    """The m = 3 descent as it once walked each axis, one fidelity_formula
    call per point, keeping every improvement: the oracle for the
    whole-axis descent."""
    best, best_f, steps = None, -1.0, 0
    for seed in seeds:
        cand, cand_f = seed, fourier.fidelity_formula(n, seed)
        improved = True
        while improved:
            improved = False
            for axis in fourier._axes(cand):
                for v in (bs if axis[0] == "b" else ps):
                    trial = fourier._with_axis(cand, axis, v)
                    f = fourier.fidelity_formula(n, trial)
                    steps += 1
                    if f > cand_f:
                        cand, cand_f = trial, f
                        improved = True
        if cand_f > best_f:
            best, best_f = cand, cand_f
    return best, steps


@pytest.mark.parametrize("step", [0.1, 0.2])
@pytest.mark.parametrize("n", range(4, 13))
def test_descent_scans_each_axis_whole(n, step, monkeypatch):
    got = fourier.optimize_powerlaw(n, 3, step)
    monkeypatch.setattr(fourier, "_descend", point_by_point_descend)
    want = fourier.optimize_powerlaw(n, 3, step)
    assert got.params == want.params and got.fidelity == want.fidelity
    assert got.evaluations == want.evaluations and got == want


def test_optimizer_m2_memory():
    # the lattice holds K^2 = 97344 entries, never K^2 x n, and is the only
    # array of that size: its terms are formed in blocks of rows
    tracemalloc.start()
    try:
        fourier.optimize_powerlaw(10, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * 312**2


@pytest.mark.parametrize("axis", ["b1", "p2"])
def test_scan_guard_counts_what_the_scan_holds(axis):
    # about 130 bytes a point whatever n is: values and fidelities as floats.
    # The upper bound is the guard's promise (it counts at least what the
    # scan holds); the figure itself rests on CPython's object sizes, so the
    # lower bound only checks that the guard does not count several times over
    step = 2e-4
    lo, hi = (-0.6, 0.6) if axis[0] == "b" else (1.5, 4.0)
    points = len(fourier._multiples(lo, hi, step))
    for n in (2, 14):
        tracemalloc.start()
        try:
            scan = fourier.scan_axis(n, PAPER_OPT, axis, step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(scan.grid) == points - (axis[0] == "b")
        assert 0.5 * fourier.SCAN_POINT_BYTES * points <= peak
        assert peak <= fourier.SCAN_POINT_BYTES * points


@pytest.mark.parametrize("n", [3, 6, 10, 14])
@pytest.mark.parametrize("offset", [0, 1])
@pytest.mark.parametrize("terms", [((0.4, 2.5),), ((0.4, 2.5), (-0.5, 3.4)),
                                   ((0.3, 2.0), (-0.2, 3.1), (0.5, 1.7))])
def test_scan_has_the_formula_bits(n, offset, terms):
    # every point of every axis, at three steps, equals the per-point formula
    params = PowerLawSum(terms, offset)
    for axis in fourier._axes(params):
        for step in (0.1, 0.05, 0.01):
            scan = fourier.scan_axis(n, params, axis, step)
            assert scan.grid == tuple(
                (v, fourier.fidelity_formula(n, fourier._with_axis(params, axis, v)))
                for v, _ in scan.grid)


# -- count models -----------------------------------------------------------------

def test_aqft_counts():
    assert [fourier.aqft_count(n, "local_banded") for n in range(10, 16)] == \
        [30, 34, 38, 42, 46, 50]
    assert [fourier.aqft_count(n, "mixed_gms") for n in range(10, 16)] == \
        [17, 19, 21, 23, 25, 27]
    assert fourier.aqft_count(2, "local_banded") == 1
    assert fourier.aqft_count(2, "mixed_gms") == 1


def test_aqfa_counts():
    assert [fourier.aqfa_count(n, "mixed_gms") for n in (5, 6, 7)] == [23, 29, 35]


def test_count_mode_validation():
    with pytest.raises(ValueError):
        fourier.aqft_count(5, "nope")


# -- direct simulation cross-check ---------------------------------------------------

def test_direct_fidelity_exact_when_termwise_match():
    # pi/(2*d) equals pi/2^d at d = 1, 2: exact for n = 3
    assert abs(fourier.direct_fidelity(3, PowerLawSum(((2.0, 1.0),), 0)) - 1) < 1e-9


def test_direct_fidelity_at_optimum():
    f = fourier.direct_fidelity(8, PAPER_OPT)
    assert 0.9 < f <= 1.0


def test_direct_fidelity_far_params_worse():
    far = PowerLawSum(((0.6, 1.5), (0.6, 1.5)), 0)
    assert fourier.direct_fidelity(6, far) < fourier.direct_fidelity(6, PAPER_OPT)


def test_direct_fidelity_guard():
    with pytest.raises(GuardError,
                       match="direct fidelity guard: 11 qubits asked, limit is 10 qubits"):
        fourier.direct_fidelity(11, PAPER_OPT)


def test_lattice_shares_the_dense_byte_budget(monkeypatch):
    # one byte budget: each qubit added to the dense guard admits 4x the entries
    for qubits, entries in (("12", 1 << 25), ("13", 4 << 25)):
        monkeypatch.setenv("GMSFORGE_MAX_DENSE_QUBITS", qubits)
        sim.guard_bytes("lattice", 8 * entries)
        with pytest.raises(GuardError, match="GMSFORGE_MAX_DENSE_QUBITS"):
            sim.guard_bytes("lattice", 8 * entries + 8)

    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    # 7560^2 entries reach the lattice at 13 qubits, and are refused at 12
    monkeypatch.setattr(fourier, "_lattice", reached)
    with pytest.raises(Reached):
        fourier.optimize_powerlaw(10, 2, 0.02)
    monkeypatch.delenv("GMSFORGE_MAX_DENSE_QUBITS")
    with pytest.raises(GuardError, match="lattice guard"):
        fourier.optimize_powerlaw(10, 2, 0.02)
