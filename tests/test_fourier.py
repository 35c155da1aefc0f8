import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import basis_state
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
    out = sim.apply(circ, basis_state(2 * n, _adder_index(n, a, b)))
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
    # the exact m = 3 optimum at n = 6 (0.999906) lies above m = 2's (0.999836)
    res = fourier.optimize_powerlaw(6, 3, grid_step=0.1)
    assert res.fidelity > fourier.optimize_powerlaw(6, 2, grid_step=0.1).fidelity
    assert len(res.params.terms) == 3
    assert all(abs(b) <= 0.6 and 1.5 <= p <= 4.0 for b, p in res.params.terms)


def test_optimizer_m3_reaches_the_grid_optimum_at_n10():
    # coordinate descent from lattice seeds stopped at 0.889901 here
    assert fourier.optimize_powerlaw(10, 3, grid_step=0.1).fidelity >= 0.9994


def power_law_terms(n, bs, ps, offset):
    """t[p, b, j] = 1/(b (j+offset)^p), with the weights w and targets y."""
    js = np.arange(1, n + 1)
    t = 1.0 / (np.array(bs)[:, None] * (js + offset) ** np.array(ps)[:, None, None])
    return t, 3.0 * (n - js) / 64.0, 2.0 ** -js


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 6, 10, 14])
@pytest.mark.parametrize("offset", [0, 1])
def test_lattice_matches_fidelity_formula(m, n, offset):
    # the exponent the search enumerates at each point of the (b, p) grid
    # lattice; |b| >= 0.4 and p >= 2.5 keep every fidelity above underflow
    # at m = 3
    bs, ps = [-0.6, -0.4, 0.4, 0.6], [2.5, 3.0, 3.5]
    t, w, y = power_law_terms(n, bs, ps, offset)
    for p_idx in itertools.combinations_with_replacement(range(len(ps)), m):
        expo = fourier._exponents(t, np.array(p_idx), y, w)
        assert expo.shape == (len(bs) ** m,)
        for flat, b_idx in enumerate(itertools.product(range(len(bs)), repeat=m)):
            params = PowerLawSum(tuple((bs[b], ps[p]) for b, p in zip(b_idx, p_idx)),
                                 offset)
            want = -math.log(fourier.fidelity_formula(n, params)) / PI**2
            assert abs(expo[flat] - want) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n, offset", [(3, 1), (10, 0), (14, 1)])
def test_bounds_are_least_squares_minima(m, n, offset):
    # each bound is the minimum over real c that lstsq finds on the distinct
    # exponents, and no grid b-tuple on those exponents lies below it
    bs = fourier._grid(-0.6, 0.6, 0.2, skip_zero=True)
    ps = fourier._grid(1.5, 4.0, 0.25, skip_zero=False)
    t, w, y = power_law_terms(n, bs, ps, offset)
    q = np.array(list(itertools.combinations_with_replacement(range(len(ps)), m)))
    cols = np.sqrt(w) * bs[-1] * t[:, -1]  # row p: sqrt(w_j) (j+offset)^-p
    a = cols[q]
    a[:, 1:][q[:, 1:] == q[:, :-1]] = 0.0
    bound = fourier._bounds(a, np.sqrt(w) * y)
    assert bound.shape == (len(q),)
    for p_idx, got in zip(q, bound):
        a = cols[sorted(set(p_idx))].T
        c = np.linalg.lstsq(a, np.sqrt(w) * y, rcond=None)[0]
        want = ((np.sqrt(w) * y - a @ c) ** 2).sum()
        assert abs(got - want) <= 1e-9 * want + 1e-18
        low = fourier._exponents(t, p_idx, y, w).min()
        assert got <= low + fourier.PRUNE_REL * low + fourier.PRUNE_ABS


def brute_force(n, m, step, offset, b_box=(-0.6, 0.6), p_box=(1.5, 4.0)):
    """The grid optimum by exhaustion: the exponent of every ordered m-tuple
    of (b, p) grid points in b-major order, one first point at a time, so
    at most K^(m-1) x n entries exist; the first minimum wins, its terms
    sorted."""
    bs = fourier._grid(*b_box, step, skip_zero=True)
    ps = fourier._grid(*p_box, step, skip_zero=False)
    combos = [(b, p) for b in bs for p in ps]
    js = np.arange(1, n + 1)
    w, y = 3.0 * (n - js) / 64.0, 2.0 ** -js
    t = np.array([[1.0 / (b * (j + offset) ** p) for j in js] for b, p in combos])
    rest = np.zeros((1, n))
    for _ in range(m - 1):
        rest = (rest[:, None] + t).reshape(-1, n)
    best, arg = math.inf, None
    for first in range(len(combos)):
        expo = (y - t[first] - rest) ** 2 @ w
        i = int(np.argmin(expo))
        if expo[i] < best:
            best, arg = expo[i], (first, *np.unravel_index(i, (len(combos),) * (m - 1)))
    return PowerLawSum(tuple(sorted(combos[k] for k in arg)), offset)


@pytest.mark.parametrize("n", range(3, 11))
@pytest.mark.parametrize("offset", [0, 1])
def test_optimizer_m3_matches_brute_force(n, offset):
    # the whole step-0.2 grid: 78 (b, p) points, 474552 ordered triples
    res = fourier.optimize_powerlaw(n, 3, 0.2, offset=offset)
    want = brute_force(n, 3, 0.2, offset)
    assert res.params == want and res.fidelity == fourier.fidelity_formula(n, want)


@pytest.mark.parametrize("n, offset", [(6, 0), (10, 0), (10, 1)])
def test_optimizer_m3_matches_brute_force_at_step_01(n, offset):
    # step 0.1 over a box that holds the n = 10 optimum: 7 x 13 points
    box = {"b_box": (-0.5, 0.2), "p_box": (1.6, 2.8)}
    res = fourier.optimize_powerlaw(n, 3, 0.1, offset=offset, **box)
    assert res.params == brute_force(n, 3, 0.1, offset, **box)


@pytest.mark.parametrize("m", [1, 2])
def test_optimizer_matches_brute_force(m):
    n, step = 6, 0.2
    bs = fourier._grid(-0.6, 0.6, step, skip_zero=True)
    ps = fourier._grid(1.5, 4.0, step, skip_zero=False)
    points = itertools.product([(b, p) for b in bs for p in ps], repeat=m)
    best = max(points, key=lambda t: fourier.fidelity_formula(n, PowerLawSum(t, 0)))
    res = fourier.optimize_powerlaw(n, m, grid_step=step)
    assert res.params.terms == tuple(sorted(best))
    assert res.params == brute_force(n, m, step, 0)
    assert res.bound_solves == math.comb(len(ps) + m - 1, m)
    assert res.b_tuples == (res.bound_solves - res.pruned) * len(bs) ** m
    assert res.evaluations == res.bound_solves + res.b_tuples


@pytest.mark.parametrize("n, m, terms, counts", [
    (10, 1, ((0.6, 2.6),), (26, 312, 0)),
    (10, 2, ((-0.5, 3.4), (0.4, 2.5)), (351, 2448, 334)),
    (6, 3, ((-0.5, 1.7), (-0.4, 2.7), (0.2, 2.0)), (3276, 1035072, 2677)),
])
def test_optimizer_pinned_results(n, m, terms, counts):
    # (bound solves, b-tuples evaluated, multisets pruned)
    res = fourier.optimize_powerlaw(n, m)
    assert res.params.terms == terms
    assert (res.bound_solves, res.b_tuples, res.pruned) == counts
    assert res.evaluations == counts[0] + counts[1]


@pytest.mark.parametrize("step, m, terms", [
    (0.05, 1, ((0.25, 3.0),)), (0.05, 2, ((-0.5, 2.0), (0.25, 2.0))),
    (0.1, 1, ((0.5, 2.0),)), (0.1, 2, ((-0.5, 4.0), (0.1, 4.0))),
])
def test_optimizer_exact_ties_go_to_the_first_tuple(step, m, terms):
    # at n = 2 only j = 1 is weighted, and with offset 1 many grid tuples fit
    # it exactly; the first ordered tuple of (b, p) points in b-major order
    # wins, as the exponent lattice's argmin picked
    res = fourier.optimize_powerlaw(2, m, step, offset=1)
    assert res.params.terms == terms and res.fidelity == 1.0


def test_optimizer_m2_memory():
    # 351 multisets of 74 floats, the 26 x 12 x 10 power-law terms and one
    # enumeration of 144 b-tuples: about 211 KiB with the scans, where the
    # K^2 exponent lattice took 989 KiB
    tracemalloc.start()
    try:
        fourier.optimize_powerlaw(10, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 << 10


@pytest.mark.parametrize("n, m, step", [(10, 1, 0.01), (10, 2, 0.02), (14, 2, 0.05),
                                        (6, 3, 0.1)])
def test_lattice_guard_counts_what_the_search_holds(n, m, step, monkeypatch):
    # the search without its scans peaks below the bytes its guard asks,
    # and above half of them
    asked = []
    monkeypatch.setattr(fourier, "guard_bytes", lambda name, size: asked.append(size))
    monkeypatch.setattr(fourier, "scan_axis", lambda *args: None)
    tracemalloc.start()
    try:
        fourier.optimize_powerlaw(n, m, step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert asked[0] / 2 <= peak <= asked[0]


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


def with_axis(params, axis, value):
    """``params`` with the axis "b2", "p1", ... set to ``value``."""
    idx = int(axis[1:]) - 1
    terms = [list(t) for t in params.terms]
    terms[idx][0 if axis[0] == "b" else 1] = value
    return PowerLawSum(tuple(tuple(t) for t in terms), params.offset)


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
                (v, fourier.fidelity_formula(n, with_axis(params, axis, v)))
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

    # m = 3 at step 0.02 (341376 multisets of 95 floats, 311.9 MB) reaches
    # the search at 13 qubits, and is refused at 12
    monkeypatch.setattr(fourier, "_bounds", reached)
    with pytest.raises(Reached):
        fourier.optimize_powerlaw(10, 3, 0.02)
    monkeypatch.delenv("GMSFORGE_MAX_DENSE_QUBITS")
    with pytest.raises(GuardError, match="lattice guard: 311900640 bytes asked"):
        fourier.optimize_powerlaw(10, 3, 0.02)
