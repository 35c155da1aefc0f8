"""Dense reference semantics: unitaries, statevector runs, equivalence checks.

Basis convention (fixed once, all verifications depend on it): qubit 0 is
the most significant bit of the basis index, so |q0 q1 ... q_{n-1}> has
index sum(q_k * 2**(n-1-k)).

Every dense check runs the basis columns |x>|0...0> of its d data wires
through the circuit at once, 2^n x 2^d entries (d = n for a unitary).  One
byte guard covers them all: n + d may not exceed twice the qubit guard, 12
by default (a dense unitary at the 100 MB scale); override with the
GMSFORGE_MAX_DENSE_QUBITS environment variable, a positive integer (any
other value raises ArgumentError).  The statevector path has no such
guard and is used for wide-register parity checks.

Every path runs through ``_run`` on the numpy kernels.  A GMS pulse is
diagonal in the X basis, so it costs one phase pass between Hadamards on
its wires instead of one XX pass per pair.  Each run of single-qubit gates
on a wire is fused into one 2x2 matrix, and the pending matrices of
``WINDOW`` adjacent wires are applied together as one block pass
(``kernels.apply_block``), so a full-register pulse on n wires costs about
2n/WINDOW block passes and one phase pass.

The textbook references a check compares against are given by their
action on a state (``IndexMap``, ``AllOnesSign``, ``BitReversedIFFT``), not
by a gate list that would itself have to be simulated.
"""

from __future__ import annotations

import cmath
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuit import ArgumentError, Circuit
from .kernels import BACKEND, CHUNK

DEFAULT_DENSE_GUARD = 12
WINDOW = 4
"""Adjacent wires whose pending single-qubit matrices are applied as one
2^WINDOW x 2^WINDOW block.  On the 15-17-qubit benchmark circuits 3 and 4
measured alike and 5 was slower."""


class DenseGuardError(RuntimeError):
    """Dense unitary request above the configured qubit guard."""


def max_dense_qubits() -> int:
    """The qubit guard: GMSFORGE_MAX_DENSE_QUBITS, a positive integer, or
    the default when it is unset or blank."""
    raw = os.environ.get("GMSFORGE_MAX_DENSE_QUBITS", "")
    if not raw.strip():
        return DEFAULT_DENSE_GUARD
    try:
        guard = int(raw)
    except ValueError:
        guard = 0
    if guard < 1:
        raise ArgumentError(
            f"GMSFORGE_MAX_DENSE_QUBITS must be a positive integer, not {raw!r}")
    return guard


def _mask(n: int, q: int) -> int:
    return 1 << (n - 1 - q)


_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)
_I = np.eye(2, dtype=np.complex128)


def _one_qubit_matrix(g) -> np.ndarray:
    if g.kind == "H":
        return _H
    c, s = math.cos(g.theta / 2), math.sin(g.theta / 2)
    if g.kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if g.kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    return np.array([[c - 1j * s, 0], [0, c + 1j * s]])  # RZ


def _pulse_phases(g, n: int, batch: int) -> tuple[tuple, np.ndarray]:
    """A GMS pulse in the X basis: exp(-i/2 sum_{i<j} chi_ij z_i z_j).

    Returns a view shape for the (dim, batch) state and a phase table that
    broadcasts against it.  z = 1 - 2b over the bits b of the pulse's wires,
    first wire most significant; runs of neighbouring wires share one axis.
    The 2^k-entry table is rebuilt at every call, as outer products of the
    pair factors exp(-i chi_ij z_i z_j / 2): O(2^k) multiplications and no
    transcendental call per entry.
    """
    wires = sorted(g.qubits)
    k = len(wires)
    pos = {q: a for a, q in enumerate(wires)}
    factors = np.ones((k, k, 2), dtype=np.complex128)  # z_i z_j = +1, -1
    for i, j, chi in g.pair_angles():
        factors[pos[i], pos[j]] = cmath.exp(-0.5j * chi), cmath.exp(0.5j * chi)
    phases = np.ones(1, dtype=np.complex128)
    for m in reversed(range(k)):
        # prod_{j>m} factor(z_j) over the later wires' bits, for z_m = +1;
        # z_m = -1 flips every z_j, which reverses the table
        field = np.ones(1, dtype=np.complex128)
        for j in reversed(range(m + 1, k)):
            field = np.multiply.outer(factors[m, j], field).ravel()
        phases = np.concatenate((phases * field, phases * field[::-1]))
    view, table = [], []
    for q in range(n):
        inside = q in pos
        if q and inside == (q - 1 in pos):
            view[-1] *= 2
            table[-1] *= 1 + inside
        else:
            view.append(2)
            table.append(1 + inside)
    return (*view, batch), phases.reshape(*table, 1)


def _run(circuit: Circuit, st: np.ndarray) -> np.ndarray:
    """Apply every gate of ``circuit`` to the (dim, batch) array in place.

    Single-qubit gates on a wire are multiplied into one pending 2x2 matrix.
    The wires are cut into fixed windows of ``WINDOW`` adjacent wires,
    counted from the least significant one.  When a multi-qubit gate touches
    a window, and at the end, every pending matrix of that window is applied
    at once: their Kronecker product (the identity on idle wires) is one
    ``apply_block`` pass.  Flushing a wire early is exact, since no later
    gate has touched it yet.  A window whose one pending matrix is diagonal
    takes one ``apply_1q`` pass instead.  A GMS pulse becomes Hadamards on
    its wires (merged into the pending matrices), one diagonal phase pass,
    and Hadamards left pending; an H meeting a pending H cancels exactly.
    """
    be = BACKEND
    n = circuit.n_qubits
    pending: dict[int, np.ndarray] = {}

    def push(q, m):
        prev = pending.get(q)
        if prev is None:
            pending[q] = m
        elif prev is _H and m is _H:
            del pending[q]
        else:
            pending[q] = m @ prev

    def flush(windows):
        for w in windows:
            top = max(0, n - WINDOW * (w + 1))
            wires = range(top, n - WINDOW * w)
            held = [q for q in wires if q in pending]
            if not held:
                continue
            q = held[0]
            m = pending[q]
            if len(held) == 1 and m[0, 1] == 0 and m[1, 0] == 0:
                del pending[q]
                be.apply_1q(st, m[0, 0], m[0, 1], m[1, 0], m[1, 1], _mask(n, q))
                continue
            blk = np.ones((1, 1), dtype=np.complex128)
            for q in wires:
                m = pending.pop(q, _I)
                size = 2 * len(blk)
                blk = (blk[:, None, :, None] * m[None, :, None, :]).reshape(size, size)
            be.apply_block(st, blk, top)

    def window(q):
        return (n - 1 - q) // WINDOW

    for g in circuit.gates:
        kind = g.kind
        if kind in ("H", "RX", "RY", "RZ"):
            push(g.qubits[0], _one_qubit_matrix(g))
            continue
        if kind == "PHASE":
            # a global phase commutes with every gate: ride on a pending matrix
            ph = cmath.exp(1j * g.theta)
            if pending:
                q = next(iter(pending))
                pending[q] = pending[q] * ph
            else:
                be.apply_scale(st, ph)
            continue
        if kind == "GMS":
            for q in g.qubits:
                push(q, _H)
        flush({window(q) for q in g.qubits})
        if kind == "CNOT":
            be.apply_cnot(st, _mask(n, g.qubits[0]), _mask(n, g.qubits[1]))
        elif kind == "CP":
            be.apply_cp(st, _mask(n, g.qubits[0]), _mask(n, g.qubits[1]),
                        cmath.exp(1j * g.theta))
        elif kind == "XX":
            c, s = math.cos(g.theta / 2), math.sin(g.theta / 2)
            be.apply_xx(st, c + 0j, s + 0j, _mask(n, g.qubits[0]), _mask(n, g.qubits[1]))
        elif kind == "GMS":
            view, phases = _pulse_phases(g, n, st.shape[1])
            be.apply_scale(st.reshape(view), phases)
            for q in g.qubits:
                pending[q] = _H
        else:  # pragma: no cover
            raise ValueError(f"unhandled gate kind {kind}")
    flush({window(q) for q in pending})
    return st


def _dense_zeros(n: int, d: int) -> np.ndarray:
    """A zero 2^n x 2^d array, allocated only under the dense guard."""
    guard = max_dense_qubits()
    if n + d > 2 * guard:
        raise DenseGuardError(
            f"dense guard: 2^{n} x 2^{d} columns need {16 << (n + d)} bytes, "
            f"limit is {16 << (2 * guard)} bytes, the size of a dense unitary "
            f"at the {guard}-qubit guard (set GMSFORGE_MAX_DENSE_QUBITS to raise it)")
    return np.zeros((1 << n, 1 << d), dtype=np.complex128)


def _columns(circuit: Circuit, data: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Run the basis columns |x>|0...0> of the ``data`` wires through the
    circuit; return the 2^n x 2^d outputs and the row each column started in.
    """
    n, d = circuit.n_qubits, len(data)
    cols = _dense_zeros(n, d)
    x = np.arange(1 << d)
    rows = np.zeros_like(x)
    for pos, q in enumerate(data):
        rows |= (x >> (d - 1 - pos) & 1) * _mask(n, q)
    cols[rows, x] = 1.0
    return _run(circuit, cols), rows


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the circuit (product of gate matrices in order)."""
    return _columns(circuit, range(circuit.n_qubits))[0]


def apply(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Gate-wise application to a statevector; no dense-width guard."""
    dim = 1 << circuit.n_qubits
    state = np.asarray(state, dtype=np.complex128)
    if state.shape != (dim,):
        raise ValueError(f"state has shape {state.shape}, expected ({dim},)")
    st = state.reshape(dim, 1).copy()
    return _run(circuit, st).reshape(dim)


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    state = np.zeros(1 << n_qubits, dtype=np.complex128)
    state[index] = 1.0
    return state


@dataclass(frozen=True)
class PhaseMatch:
    ok: bool
    phase: complex
    max_deviation: float


def _row_blocks(a: np.ndarray):
    """Blocks of whole rows of ``a`` (contiguous in C order), at most
    ``kernels.CHUNK`` entries each unless one row is longer."""
    a = a.reshape(len(a), -1)
    step = max(1, CHUNK // a.shape[1])
    return [a[r:r + step] for r in range(0, len(a), step)]


def _max_deviation(u: np.ndarray, v: np.ndarray, lam) -> float:
    """max |u - lam * v| with temporaries of one row block."""
    peaks = []
    for a, b in zip(_row_blocks(u), _row_blocks(v)):
        t = lam * b
        np.subtract(a, t, out=t)
        peaks.append(np.abs(t).max())
    return float(np.max(peaks))


def equiv_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-9) -> PhaseMatch:
    """Test u == phase * v entrywise within tol.

    The candidate phase is read off at v's largest-magnitude entry, the
    first in row-major order (avoids dividing by near-zeros), and
    renormalized to unit modulus.  Both scans run over blocks of rows, so
    their temporaries are one block, not the size of u.
    """
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    peaks, flats, start = [], [], 0
    for b in _row_blocks(v):
        mag = np.abs(b)
        i = int(np.argmax(mag))
        peaks.append(mag.flat[i])
        flats.append(start + i)
        start += b.size
    flat = flats[int(np.argmax(peaks))]
    pivot = v.reshape(-1)[flat]
    if abs(pivot) == 0.0:
        return PhaseMatch(False, 1.0 + 0j, float("inf"))
    lam = u.reshape(-1)[flat] / pivot
    if abs(lam) == 0.0:
        return PhaseMatch(False, 1.0 + 0j, _max_deviation(u, v, 1.0))
    lam /= abs(lam)
    dev = _max_deviation(u, v, lam)
    return PhaseMatch(dev <= tol, lam, dev)


@dataclass(frozen=True)
class AncillaMatch:
    ok: bool
    failure: str | None  # None | "leakage" | "mismatch"
    phase: complex
    max_deviation: float
    leakage: float


def equiv_on_ancilla(circuit: Circuit, data_unitary: np.ndarray,
                     tol: float = 1e-9) -> AncillaMatch:
    """Check the circuit acts as ``data_unitary`` on the data register.

    The data register is the circuit's non-ancilla wires, or the whole
    register when ``data_unitary`` is as wide as the circuit (then this is
    ``equiv_phase(unitary_of(circuit), data_unitary)`` and leakage is 0).
    Every data basis state |x>|0...0> is run through the circuit; the result
    must be (V|x>)|0...0> with one common global phase.  Residual population
    on the ancilla-neq-0 rows above tol is reported as the distinct
    "leakage" failure.  The columns are held at once under the dense guard.
    """
    n = circuit.n_qubits
    full = data_unitary.shape == (1 << n, 1 << n)
    data = range(n) if full else circuit.data_qubits
    ddim = 1 << len(data)
    if data_unitary.shape != (ddim, ddim):
        raise ArgumentError(
            f"reference acts on {data_unitary.shape}; the data register has "
            f"dimension {ddim}, the whole register {1 << n}")
    cols, rows = _columns(circuit, data)
    w, leakage = cols, 0.0  # a view when every wire is data
    if not full:
        w = cols[rows]
        cols[rows] = 0.0
        leakage = float(np.max(np.abs(cols)))
    if leakage > tol:
        return AncillaMatch(False, "leakage", 1.0 + 0j, float("inf"), leakage)
    pm = equiv_phase(w, data_unitary, tol)
    failure = None if pm.ok else "mismatch"
    return AncillaMatch(pm.ok, failure, pm.phase, pm.max_deviation, leakage)


# ---------------------------------------------------------------------------
# References that act on a state
# ---------------------------------------------------------------------------
#
# Each reference below is the textbook unitary V on d data wires, given by
# its action rather than by a gate list.  Calling it maps a (2^d, batch)
# array of states to their images; ``matrix()`` is V itself, built in one
# 2^d x 2^d array under the dense guard.  Nothing of size 2^d exists before
# the first use.

class IndexMap:
    """V|x> = |dest[x]> for a permutation ``dest`` of the 2^d basis
    indices, which ``build()`` returns on first use."""

    def __init__(self, d: int, build):
        self.d = d
        self._build = build

    @cached_property
    def dest(self) -> np.ndarray:
        return self._build()

    def __call__(self, cols: np.ndarray) -> np.ndarray:
        out = np.empty_like(cols)
        out[self.dest] = cols
        return out

    def matrix(self) -> np.ndarray:
        m = _dense_zeros(self.d, self.d)
        m[self.dest, np.arange(len(m))] = 1.0
        return m


class AllOnesSign:
    """V = diag(1, ..., 1, -1): the sign of the all-ones index flips."""

    def __init__(self, d: int):
        self.d = d

    def __call__(self, cols: np.ndarray) -> np.ndarray:
        out = cols.copy()
        out[-1] *= -1
        return out

    def matrix(self) -> np.ndarray:
        m = _dense_zeros(self.d, self.d)
        np.fill_diagonal(m, 1.0)
        m[-1, -1] = -1.0
        return m


def _bit_reversal(d: int) -> np.ndarray:
    """The index of every d-bit basis state with its bits reversed."""
    x = np.arange(1 << d)
    rev = np.zeros_like(x)
    for k in range(d):
        rev |= (x >> k & 1) << (d - 1 - k)
    return rev


class BitReversedIFFT:
    """V|k> = sum_j exp(2 pi i j rev(k) / 2^d) |j> / sqrt(2^d): the
    transform with bit-reversed input, as a normalised inverse FFT of the
    bit-reversed state, O(2^d d) per column."""

    def __init__(self, d: int):
        self.d = d
        self.reverse = IndexMap(d, lambda: _bit_reversal(d))

    def __call__(self, cols: np.ndarray) -> np.ndarray:
        return np.fft.ifft(self.reverse(cols), axis=0, norm="ortho")

    def matrix(self) -> np.ndarray:
        m = self.reverse.matrix()
        return np.fft.ifft(m, axis=0, norm="ortho", out=m)


def trace_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """|tr(U^dag V)| / dim, in [0, 1]."""
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    return abs(np.trace(u.conj().T @ v)) / u.shape[0]
