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

Every path runs through ``_run`` on the numpy kernels, three of them.
Every multi-qubit gate but CNOT is one diagonal phase table between
single-qubit frames: a GMS pulse is diagonal in the X basis, so it costs
one phase pass between Hadamards on its wires instead of one XX pass per
pair; XX is the two-wire pulse and CP a table with no frame.  Each run of
single-qubit gates on a wire is fused into one 2x2 matrix, and the pending
matrices of ``WINDOW`` adjacent wires are applied together as one block
pass (``kernels.apply_block``).  A pending matrix that is diagonal up to
rounding (``ROUNDING``) on a gate's wire, before a CNOT or at the end is
folded into a phase table instead of being flushed, and tables that come
out adjacent are one table.  So a run of adjacent pulses costs one phase
pass plus one block pass per window that holds a non-diagonal pending
matrix: at most about n/WINDOW for a full-register pulse on n wires, none
between pulses whose wires carry only gates diagonal in the pulse's X
basis.  A CNOT is one ``apply_cnot`` pass.

Each ``Circuit`` is fused, folded and tabled once: ``_compile`` turns it
into a ``Plan`` of passes on its first run, the plan is kept on the
circuit (an immutable value) for the circuit's lifetime, and every run
only executes it.  The plan's tables are the memory this costs, about
2 MiB each for ``qft_gms(16)`` and ``phase_polynomial_identity(17)``.
``_run`` returns the passes by kind, and ``equiv_on_ancilla`` reports them
with the plan's bytes.

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

from .circuit import ArgumentError, Circuit, Uniform, gms
from .kernels import BACKEND, CHUNK

DEFAULT_DENSE_GUARD = 12
WINDOW = 4
"""Adjacent wires whose pending single-qubit matrices are applied as one
2^WINDOW x 2^WINDOW block.  On the 15-17-qubit benchmark circuits 3 and 4
measured alike and 5 was slower."""
ROUNDING = 1e-15
"""A pending matrix on a pulse wire is folded into the pulse's phase table
when |m01| + |m10| is at most this.  H RX H and H H RZ, the frames the
constructions put around their pulses, come out with off-diagonal residues
of about 1e-16 instead of exact zeros; the smallest genuine off-diagonal
entry in the constructions is 0.77.  This is a rounding rule, not an
equivalence tolerance: dropping the residue moves the state by at most
1e-15 per fold, the size of the rounding in every other product, and six
orders of magnitude below the 1e-9 equivalence tolerance."""


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


def _pulse_phases(pulses: Sequence, n: int, diag: dict) -> tuple[tuple, np.ndarray]:
    """A run of GMS pulses in the X basis, the product of their
    exp(-i/2 sum_{i<j} chi_ij z_i z_j), times the diagonal matrices ``diag``
    maps wires to.  Diagonal factors commute, so the run is one table over
    the union of the pulses' wires and ``diag``'s, built from the summed
    pair angles.

    Returns a view shape for a (dim, batch) state, less its batch axis, and
    a phase table that broadcasts against the view with the batch appended.
    z = 1 - 2b over the bits b of the union's wires, first wire most
    significant; runs of neighbouring wires share one axis.  The 2^k-entry
    table is built from the pair factors exp(-i chi_ij / 2), one vectorised
    exp of the k x k angle matrix, and filled in place with a few numpy
    calls per wire: no transcendental call per entry.
    """
    wires = sorted({q for g in pulses for q in g.qubits}.union(diag))
    k = len(wires)
    pos = {q: a for a, q in enumerate(wires)}
    chi = np.zeros((k, k))
    for g in pulses:
        for i, j, c in g.pair_angles():
            chi[pos[i], pos[j]] += c
    # pair[i, j, b], the factor exp(-i chi_ij z_i z_j / 2) at z_i z_j = 1 - 2b
    pair = np.exp(np.multiply.outer(chi + chi.T, [-0.5j, 0.5j]))
    # field[j] is the factor wire j brings at z_j = +1, its conjugate at
    # z_j = -1: the product of its couplings to the wires already in the
    # table.  A diagonal diag(m00, m11) is e u^z_j with u = sqrt(m00 / m11),
    # of unit modulus, and e = m00 / u: u starts wire j's field, e the table.
    field = np.ones((k, 1), dtype=np.complex128)
    phases = np.empty(1 << k, dtype=np.complex128)
    phases[0] = 1.0
    for q, m in diag.items():
        field[pos[q]] = u = cmath.sqrt(m[0, 0] / m[1, 1])
        phases[0] *= m[0, 0] / u
    # each wire w, last first, becomes the table's new most significant bit
    for w in reversed(range(k)):
        s = 1 << (k - 1 - w)
        np.multiply(phases[:s], field[w].conj(), out=phases[s:2 * s])
        phases[:s] *= field[w]
        field = (field[:w, None] * pair[w, :w, :, None]).reshape(w, 2 * s)
    view, table = [], []
    for q in range(n):
        inside = q in pos
        if q and inside == (q - 1 in pos):
            view[-1] *= 2
            table[-1] *= 1 + inside
        else:
            view.append(2)
            table.append(1 + inside)
    return tuple(view), phases.reshape(*table, 1)


@dataclass(frozen=True)
class Plan:
    """A circuit compiled for ``_run``.

    ``steps`` are the passes over the state in order, each a kernel name on
    ``BACKEND``, the view the kernel takes of a (dim, batch) state (a shape
    less its batch axis, or None for the state as it is) and the kernel's
    arguments.  ``passes`` counts them by kind, and ``nbytes`` is what the
    plan's phase tables and blocks hold.
    """

    steps: tuple[tuple[str, tuple | None, tuple], ...]
    passes: dict[str, int]
    nbytes: int


def _compile(circuit: Circuit) -> Plan:
    """Fuse, fold and table ``circuit`` into the passes ``_run`` makes.

    Single-qubit gates on a wire are multiplied into one pending 2x2 matrix.
    The wires are cut into fixed windows of ``WINDOW`` adjacent wires,
    counted from the least significant one.  When a multi-qubit gate meets a
    non-diagonal pending matrix on one of its wires, and at the end, every
    pending matrix of that wire's window is applied at once: their
    Kronecker product (the identity on idle wires) is one ``apply_block``
    pass.  Flushing a wire early is exact, since no later gate has touched
    it yet.

    Every multi-qubit gate but CNOT joins the open diagonal table.  A GMS
    pulse, and XX(theta) as the two-wire ``Uniform(theta)`` pulse, is
    Hadamards on its wires (merged into the pending matrices; an H meeting a
    pending H cancels exactly), its pair angles in the table and Hadamards
    left pending.  CP(theta) has no frame: pair angle -theta/2 and the
    diagonal factors RZ(theta/2) and diag(1, e^{i theta/2}) of its wires.
    A pending matrix that is diagonal up to rounding (see ``ROUNDING``) on
    a gate's wire, before a CNOT's ``apply_cnot`` pass or at the end is not
    flushed but multiplied into the table, which commutes with it.  The
    table is one pass (``_pulse_phases``) when another pass or the end
    closes it.  So a run of pulses costs one phase pass plus one block pass
    per window that holds a non-diagonal pending matrix.
    """
    n = circuit.n_qubits
    pending: dict[int, np.ndarray] = {}
    steps = []
    passes = dict.fromkeys(("block", "phase", "cnot"), 0)
    run, folded = [], {}  # the open table: its pulses and folded factors

    def close_run():
        if run or folded:
            view, phases = _pulse_phases(run, n, folded)
            steps.append(("apply_scale", view, (phases,)))
            passes["phase"] += 1
            run.clear()
            folded.clear()

    def emit(kind, name, *args):
        close_run()
        steps.append((name, None, args))
        passes[kind] += 1

    def push(q, m):
        prev = pending.get(q)
        if prev is None:
            pending[q] = m
        elif prev is _H and m is _H:
            del pending[q]
        else:
            pending[q] = m @ prev

    def diagonals(wires) -> dict:  # popped from the pending matrices
        return {q: pending.pop(q) for q in wires if q in pending
                and abs(pending[q][0, 1]) + abs(pending[q][1, 0]) <= ROUNDING}

    def join(diag):
        for q, m in diag.items():
            folded[q] = m @ folded.get(q, _I)

    def flush(wires):
        for w in {(n - 1 - q) // WINDOW for q in wires if q in pending}:
            top = max(0, n - WINDOW * (w + 1))
            blk = np.ones((1, 1), dtype=np.complex128)
            for q in range(top, n - WINDOW * w):
                m = pending.pop(q, _I)
                size = 2 * len(blk)
                blk = (blk[:, None, :, None] * m[None, :, None, :]).reshape(size, size)
            emit("block", "apply_block", blk, top)

    for g in circuit.gates:
        kind, wires = g.kind, g.qubits
        if kind in ("H", "RX", "RY", "RZ"):
            push(wires[0], _one_qubit_matrix(g))
        elif kind == "PHASE":
            # a global phase commutes with every gate: ride on a pending
            # matrix, or on wire 0 as a multiple of the identity
            q = next(iter(pending), 0)
            pending[q] = pending.get(q, _I) * cmath.exp(1j * g.theta)
        elif kind == "CNOT":
            join(diagonals(wires))
            flush(wires)
            emit("cnot", "apply_cnot", *(_mask(n, q) for q in wires))
        else:
            if kind != "CP":  # the frame: Hadamards on the gate's wires
                for q in wires:
                    push(q, _H)
            diag = diagonals(wires)
            flush(wires)
            join(diag)
            if kind == "CP":
                t = 0.25j * g.theta
                run.append(gms(wires, Uniform(-g.theta / 2)))
                join({wires[0]: np.diag([cmath.exp(-t), cmath.exp(t)]),
                      wires[1]: np.diag([1, cmath.exp(2 * t)])})
            else:
                run.append(g if kind == "GMS" else gms(wires, Uniform(g.theta)))
                pending.update(dict.fromkeys(wires, _H))
    join(diagonals(list(pending)))
    flush(list(pending))
    close_run()
    arrays = [a for _, _, args in steps for a in args if isinstance(a, np.ndarray)]
    for a in arrays:
        a.flags.writeable = False  # shared by every run of the plan
    return Plan(tuple(steps), passes, sum(a.nbytes for a in arrays))


def _plan(circuit: Circuit) -> Plan:
    """The circuit's plan, compiled on first use and kept on the circuit,
    an immutable value, so it lives exactly as long as the circuit."""
    plan = getattr(circuit, "_plan", None)
    if plan is None:
        plan = _compile(circuit)
        object.__setattr__(circuit, "_plan", plan)
    return plan


def _run(circuit: Circuit, st: np.ndarray) -> dict[str, int]:
    """Apply every gate of ``circuit`` to the (dim, batch) array in place,
    through the circuit's plan; return the passes over the state by kind
    (block, phase, cnot), a copy the caller may keep.  The kernels
    are looked up on ``BACKEND`` at every pass."""
    plan, batch = _plan(circuit), st.shape[1]
    for name, view, args in plan.steps:
        getattr(BACKEND, name)(st if view is None else st.reshape(*view, batch), *args)
    return dict(plan.passes)


def _dense_zeros(n: int, d: int) -> np.ndarray:
    """A zero 2^n x 2^d array, allocated only under the dense guard."""
    guard = max_dense_qubits()
    if n + d > 2 * guard:
        raise DenseGuardError(
            f"dense guard: 2^{n} x 2^{d} columns need {16 << (n + d)} bytes, "
            f"limit is {16 << (2 * guard)} bytes, the size of a dense unitary "
            f"at the {guard}-qubit guard (set GMSFORGE_MAX_DENSE_QUBITS to raise it)")
    return np.zeros((1 << n, 1 << d), dtype=np.complex128)


def _columns(circuit: Circuit, data: Sequence[int]
             ) -> tuple[np.ndarray, np.ndarray, dict[str, int]]:
    """Run the basis columns |x>|0...0> of the ``data`` wires through the
    circuit; return the 2^n x 2^d outputs, the row each column started in
    and the passes over the columns by kind.
    """
    n, d = circuit.n_qubits, len(data)
    cols = _dense_zeros(n, d)
    x = np.arange(1 << d)
    rows = np.zeros_like(x)
    for pos, q in enumerate(data):
        rows |= (x >> (d - 1 - pos) & 1) * _mask(n, q)
    cols[rows, x] = 1.0
    return cols, rows, _run(circuit, cols)


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
    _run(circuit, st)
    return st.reshape(dim)


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
    passes: dict[str, int]  # passes over the columns by kind, from ``_run``
    plan_bytes: int  # held in the circuit's plan, ``Plan.nbytes``


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
    cols, rows, passes = _columns(circuit, data)
    plan_bytes = _plan(circuit).nbytes
    w, leakage = cols, 0.0  # a view when every wire is data
    if not full:
        w = cols[rows]
        cols[rows] = 0.0
        leakage = float(np.max(np.abs(cols)))
    if leakage > tol:
        return AncillaMatch(False, "leakage", 1.0 + 0j, float("inf"), leakage,
                            passes, plan_bytes)
    pm = equiv_phase(w, data_unitary, tol)
    failure = None if pm.ok else "mismatch"
    return AncillaMatch(pm.ok, failure, pm.phase, pm.max_deviation, leakage,
                        passes, plan_bytes)


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
    return abs(np.vdot(u, v)) / u.shape[0]
