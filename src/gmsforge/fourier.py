"""Fourier-transform and Fourier-adder generators over global pulses,
plus the power-law approximation machinery.

The controlled-phase star that makes up each transform layer is realized
exactly from the identity

    CP(phi) = e^(i*phi/4) * RZ(x, phi/2) * RZ(y, phi/2) * [H-conj XX(-phi/2)]

so a star of CPs becomes one Hadamard sandwich around a pulse pair (full
span, then the inverse couplings on the non-hub subset) plus diagonal
dressing.  Exact angles follow pi/2^d in the hub distance d; the adder's
stars are shifted one step (their nearest coupling is a full pi).  In
power-law mode only the pulse couplings are approximated, one pulse pair
per term; the single-qubit dressing keeps the exact angles.

Register encoding for the adder is little-endian: wire j of each register
carries bit j (weight 2^j).

Transforms are verified against the textbook transform's action
(``qft_reference_spec``): on states a normalised inverse FFT of the
bit-reversed state, and to a check its rows, gathered one block at a time
from a table of roots of unity as the check reads them, so no 2^n x 2^n
matrix is held; the gate list ``qft_reference`` is what ``synth qft-ref``
prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations, combinations_with_replacement

import numpy as np

from .circuit import (ArgumentError, Circuit, Exponential, Gate, PerPair,
                      PowerLawSum, check_register, cp, gms, global_phase, guard, h, rz)
from .constructions import ConstructionSpec
from .sim import BitReversedIFFT, guard_bytes, trace_fidelity, unitary_of

PI = math.pi
SCAN_POINT_BYTES = 136
"""Bytes a point of ``scan_axis`` holds: its value and fidelity as Python
floats, in two lists and then in the grid of pairs; about 130 under
tracemalloc on 64-bit CPython 3.11, whatever n and the terms.  The figure
rests on that interpreter's object sizes."""
PRUNE_REL, PRUNE_ABS = 1e-9, 1e-15  # optimize_powerlaw's pruning margins


def qft_reference(n: int) -> Circuit:
    """Textbook transform: H plus controlled-phase cascade, bit-reversed
    output order (no swap layer)."""
    check_register(n)
    gates: list[Gate] = []
    for k in range(n - 1, 0, -1):
        gates.append(h(k))
        gates += [cp(k - s, k, PI / 2**s) for s in range(1, k + 1)]
    gates.append(h(0))
    return Circuit(n, tuple(gates))


def qft_reference_spec(n: int) -> ConstructionSpec:
    """The textbook transform circuit, built on the first read of
    ``generated``, paired with its action: the normalised inverse FFT of
    the bit-reversed state, whose rows a check reads one block at a time."""
    check_register(n)
    return ConstructionSpec(lambda: qft_reference(n), BitReversedIFFT(n))


def _gms_laws(profile) -> list:
    """Per-pulse-pair coupling laws as functions of the exact angle exponent."""
    if isinstance(profile, Exponential):
        return [lambda e: PI / 2**e]
    if isinstance(profile, PowerLawSum):
        off = profile.offset
        return [lambda e, b=b, p=p: PI / (b * (e + off) ** p)
                for b, p in profile.terms]
    raise ArgumentError("transform generators take an exponential or power-law profile")


def _phase_star(hub: int, targets: list[int], shift: int, laws: list) -> list[Gate]:
    """Gates for the product of CP(hub, t_s, pi/2^(s-shift)) over slots s.

    Exact with the exponential law; with power laws the couplings carry the
    approximation while the RZ/global-phase dressing stays exact.  Every
    law contributes one two-pulse pair; a single-target star splits its
    coupling over two half-angle pulses so the per-layer pulse count stays
    at two per law.
    """
    slots = {hub: 0}
    for s, t in enumerate(targets, start=1):
        slots[t] = s
    support = sorted([hub] + targets)
    phis = [PI / 2 ** (s - shift) for s in range(1, len(targets) + 1)]

    gates = [h(q) for q in support]
    for law in laws:
        full = tuple((a, b, -law(abs(slots[a] - slots[b]) - shift) / 2)
                     for a, b in combinations(support, 2))
        if len(targets) >= 2:
            gates.append(gms(support, PerPair(full)))
            sub = tuple((a, b, -chi) for a, b, chi in full if hub not in (a, b))
            gates.append(gms(sorted(targets), PerPair(sub)))
        else:
            halved = tuple((a, b, chi / 2) for a, b, chi in full)
            gates.append(gms(support, PerPair(halved)))
            gates.append(gms(support, PerPair(halved)))
    gates += [h(q) for q in support]

    gates += [rz(t, phis[slots[t] - 1] / 2) for t in targets]
    gates.append(rz(hub, sum(phis) / 2))
    gates.append(global_phase(sum(phis) / 4))
    return gates


def _qft_layers(wires: list[int], laws: list) -> list[Gate]:
    gates: list[Gate] = []
    m = len(wires)
    for k in range(m - 1, 0, -1):
        hub = wires[k]
        targets = [wires[k - s] for s in range(1, k + 1)]
        gates.append(h(hub))
        gates += _phase_star(hub, targets, 0, laws)
    gates.append(h(wires[0]))
    return gates


def qft_gms(n: int, profile) -> Circuit:
    """Transform from 2(n-1) pulses per power-law term (2(n-1) total with
    the exponential profile); equals qft_reference exactly there."""
    check_register(n, 2)
    return Circuit(n, tuple(_qft_layers(list(range(n)), _gms_laws(profile))))


def qfa_gms(n: int, profile) -> Circuit:
    """Adder |a>|b> -> |a>|a+b mod 2^n> on registers a = wires 0..n-1,
    b = wires n..2n-1, both little-endian (wire j carries weight 2^j).
    A power-law profile needs offset 1: the adder's nearest coupling sits at
    exponent 0."""
    check_register(n, 2)
    if isinstance(profile, PowerLawSum) and profile.offset == 0:
        raise ArgumentError("the power-law adder needs --offset 1: its nearest "
                            "coupling sits at exponent 0")
    laws = _gms_laws(profile)
    b_wires = list(range(n, 2 * n))
    fwd = _qft_layers(b_wires, laws)
    gates = list(fwd)
    for j in range(n):
        gates += _phase_star(j, b_wires[j:], 1, laws)
    gates += Circuit(2 * n, tuple(fwd)).inverse().gates
    return Circuit(2 * n, tuple(gates))


# ---------------------------------------------------------------------------
# Fidelity objective and grid optimizer
# ---------------------------------------------------------------------------

def fidelity_formula(n: int, params: PowerLawSum) -> float:
    """Analytic transform fidelity of a power-law coupling approximation:

        exp(-pi^2 * sum_j 3(n-j)/64 * [2^-j - sum_i 1/(b_i (j+off)^p_i)]^2)

    with j running 1..n; offset 1 shifts the power-law base for the adder
    variant."""
    check_register(n, 2)
    expo = 0.0
    for j in range(1, n + 1):
        approx = sum(1.0 / (b * (j + params.offset) ** p) for b, p in params.terms)
        expo += 3.0 * (n - j) / 64.0 * (2.0**-j - approx) ** 2
    return math.exp(-PI**2 * expo)


@dataclass(frozen=True)
class FidelityScan:
    axis: str  # "b1", "p2", ...
    grid: tuple[tuple[float, float], ...]  # (value, fidelity)

    def peak(self) -> float:
        return max(self.grid, key=lambda vf: vf[1])[0]


@dataclass(frozen=True)
class OptimizeResult:
    params: PowerLawSum
    fidelity: float
    scans: tuple[FidelityScan, ...] = field(default_factory=tuple)
    bound_solves: int = 0  # multisets of exponents given a least-squares bound
    b_tuples: int = 0  # grid b-tuples whose exponent was evaluated
    pruned: int = 0  # multisets skipped on their bound

    @property
    def evaluations(self) -> int:
        return self.bound_solves + self.b_tuples


def _multiples(lo: float, hi: float, step: float) -> range:
    """The k with k * step in [lo, hi]: a grid axis, sized before it exists."""
    if not (step > 0 and math.isfinite(step)):
        raise ArgumentError(f"grid step must be positive and finite, not {step!r}")
    return range(math.ceil(lo / step - 1e-9), math.floor(hi / step + 1e-9) + 1)


def _grid(lo: float, hi: float, step: float, skip_zero: bool) -> list[float]:
    return [round(k * step, 10) for k in _multiples(lo, hi, step)
            if not (skip_zero and k == 0)]


def _axes(params: PowerLawSum) -> list[str]:
    return [f"{c}{i+1}" for c in "bp" for i in range(len(params.terms))]


def scan_axis(n: int, params: PowerLawSum, axis: str, step: float = 0.1,
              b_box: tuple[float, float] = (-0.6, 0.6),
              p_box: tuple[float, float] = (1.5, 4.0)) -> FidelityScan:
    """Fidelity along one parameter axis, all others held fixed, every
    point at once; the SCAN_POINT_BYTES a point holds are held to the byte
    budget."""
    lo, hi = b_box if axis[0] == "b" else p_box
    guard_bytes("scan", SCAN_POINT_BYTES * len(_multiples(lo, hi, step)))
    values = _grid(lo, hi, step, skip_zero=axis[0] == "b")
    return FidelityScan(axis, tuple(zip(values, _scan_fidelities(n, params, axis, values))))


def _scan_fidelities(n: int, params: PowerLawSum, axis: str, values: list) -> list:
    """``fidelity_formula`` at every value of one axis: the formula's steps
    in its order, over j and then the terms, each taken for all points at
    once, so every point has the formula's bits.  The steps are Python
    float operations, not numpy ones, whose pow and exp may differ from
    the formula's in the last bit."""
    check_register(n, 2)
    axis_term, on_b = int(axis[1:]) - 1, axis[0] == "b"
    expo = [0.0] * len(values)
    for j in range(1, n + 1):
        d = j + params.offset
        approx = [0] * len(values)  # sum() starts at 0
        for term, (b, p) in enumerate(params.terms):
            if term != axis_term:
                fixed = 1.0 / (b * d ** p)
                approx = [a + fixed for a in approx]
            elif on_b:
                dp = d ** p
                approx = [a + 1.0 / (v * dp) for a, v in zip(approx, values)]
            else:
                approx = [a + 1.0 / (b * d ** v) for a, v in zip(approx, values)]
        weight, exact = 3.0 * (n - j) / 64.0, 2.0**-j
        expo = [e + weight * (exact - a) ** 2 for e, a in zip(expo, approx)]
    return [math.exp(-PI**2 * e) for e in expo]


def optimize_powerlaw(n: int, m: int, grid_step: float = 0.1,
                      b_box: tuple[float, float] = (-0.6, 0.6),
                      p_box: tuple[float, float] = (1.5, 4.0),
                      offset: int = 0) -> OptimizeResult:
    """The grid optimum of the fidelity formula, exact for every m.

    With c_i = 1/b_i the exponent -ln(F)/pi^2 = sum_j w_j (2^-j - sum_i c_i
    (j+offset)^-p_i)^2, w_j = 3(n-j)/64, is a least-squares form in c once
    the exponents are fixed (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413,
    1973), whose minimum over real c (``_bounds``) bounds every grid b-tuple
    on them.  Multisets of m grid exponents are visited in ascending order
    of it, each evaluating all K_b^m b-tuples, until a bound exceeds the
    best exponent by PRUNE_REL of it plus PRUNE_ABS, over 40 times the
    bounds' error, so exact ties are still visited; of those the first
    m-tuple of (b, p) grid points in b-major order wins.  Terms come out
    ascending by (b, p).  Before any grid list exists the ``lattice`` guard
    holds to the byte budget 8 bytes a float held: 2mn + 3n + m + 2 a
    multiset, K_p (K_b + 1) n of powers and terms and 3 K_b^m n for one
    enumeration.
    """
    check_register(n, 2)
    if m not in (1, 2, 3):
        raise ArgumentError("m must be 1, 2 or 3")
    kb, kp = _multiples(*b_box, grid_step), _multiples(*p_box, grid_step)
    nb, np_ = len(kb) - (0 in kb), len(kp)
    if not nb or not np_:
        raise ArgumentError("empty search grid")
    tuples = math.comb(np_ + m - 1, m)
    guard_bytes("lattice", 8 * (tuples * (2 * m * n + 3 * n + m + 2)
                                + np_ * (nb + 1) * n + 3 * nb**m * n))
    bs = _grid(b_box[0], b_box[1], grid_step, skip_zero=True)
    ps = _grid(p_box[0], p_box[1], grid_step, skip_zero=False)
    js = np.arange(1, n + 1)
    w, y = 3.0 * (n - js) / 64.0, 2.0 ** -js
    powers, root = (js + offset) ** np.array(ps)[:, None], np.sqrt(w)
    q = np.fromiter(chain.from_iterable(combinations_with_replacement(range(np_), m)),
                    np.intp, tuples * m).reshape(tuples, m)
    cols = root / powers[q]
    cols[:, 1:][q[:, 1:] == q[:, :-1]] = 0.0  # a repeated exponent adds nothing
    bound = _bounds(cols, root * y)
    t = np.einsum("b,pj->pbj", bs, powers)  # unlike *, no broadcast buffer
    t = np.divide(1.0, t, out=t)  # t[p, b, j] = 1/(b (j+offset)^p)
    best, key, visited = math.inf, (), 0
    for i in np.argsort(bound, kind="stable"):
        if bound[i] > best + PRUNE_REL * best + PRUNE_ABS:
            break
        visited += 1
        expo = _exponents(t, q[i], y, w)
        low = expo.min()
        for flat in np.flatnonzero(expo == low) if low <= best else ():
            b_idx = np.unravel_index(flat, (nb,) * m)
            tie = tuple(sorted(zip(map(int, b_idx), map(int, q[i]))))
            best, key = min((best, key), (low, tie))
    best = PowerLawSum(tuple((bs[b], ps[p]) for b, p in key), offset)
    scans = tuple(scan_axis(n, best, axis, grid_step, b_box, p_box)
                  for axis in _axes(best))
    return OptimizeResult(best, fidelity_formula(n, best), scans, tuples,
                          visited * nb**m, tuples - visited)


def _exponents(t: np.ndarray, p_idx, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """-ln(F)/pi^2 at every b-tuple on the exponents ``p_idx``, the last b
    fastest, from the terms t[p, b, j] = 1/(b (j+offset)^p)."""
    approx = t[p_idx[0]]
    for p in p_idx[1:]:
        approx = (approx[:, None] + t[p]).reshape(-1, len(y))
    return (y - approx) ** 2 @ w


def _bounds(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """min over real c of |b - sum_i c_i a[t, i]|^2 for every t: b's residual
    under modified Gram-Schmidt over the columns a[t, i], which is backward
    stable (Bjorck & Paige, SIAM J. Matrix Anal. Appl. 13, 176, 1992):
    against a 50-digit solve it errs by under 2.5e-11 of itself upward, and
    6e-11 downward, at steps down to 0.002 (m = 2) and 0.02 (m = 3).  A
    zero column adds no direction."""
    res, basis = np.broadcast_to(b, a[:, 0].shape), []
    for v in a.swapaxes(0, 1):  # the columns in turn
        for u in basis:
            v = v - (v * u).sum(1, keepdims=True) * u
        norm = np.sqrt((v * v).sum(1, keepdims=True))
        basis.append(np.divide(v, norm, out=np.zeros_like(v), where=norm > 0))
        res = res - (res * basis[-1]).sum(1, keepdims=True) * basis[-1]
    return (res * res).sum(1)


def direct_fidelity(n: int, params: PowerLawSum) -> float:
    """Full-simulation cross-check: trace fidelity between the exact
    exponential-profile transform and its power-law approximation."""
    guard("direct fidelity", n, 10, "qubits")
    exact = unitary_of(qft_gms(n, Exponential()))
    approx = unitary_of(qft_gms(n, params))
    return trace_fidelity(exact, approx)


# ---------------------------------------------------------------------------
# Approximate-transform count models
# ---------------------------------------------------------------------------
#
# The banded model is a reconstruction of the published per-size counts:
# an approximate transform truncates each controlled-phase cascade layer to
# its 4 nearest couplings, costing min(layer, 4) local gates, and a mixed
# local/global realization replaces any multi-gate layer with one pulse
# pair, costing min(2, min(layer, 4)) = min(layer, 2).  The local column
# and the mixed column reproduce the published transform rows exactly; the
# published local adder counts do NOT follow from this model and are
# excluded from the ledger checks (see cli.table1).

LAYER_CAP = {"local_banded": 4, "mixed_gms": 2}  # the most gates a layer costs


def aqft_count(n: int, mode: str) -> int:
    """Entangling-gate count of the approximate transform under the banded
    model; layers have 1..n-1 controlled phases."""
    check_register(n, 2)
    return _banded(range(1, n), mode)


def aqfa_count(n: int, mode: str) -> int:
    """Approximate adder: transform + n control columns (lengths n..1) +
    inverse transform, same per-layer rule."""
    check_register(n, 2)
    return 2 * _banded(range(1, n), mode) + _banded(range(1, n + 1), mode)


def _banded(layer_lengths, mode: str) -> int:
    if mode not in LAYER_CAP:
        raise ArgumentError(f"mode must be one of {tuple(LAYER_CAP)}")
    return sum(min(length, LAYER_CAP[mode]) for length in layer_lengths)
