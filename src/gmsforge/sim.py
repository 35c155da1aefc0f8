"""Dense reference semantics: unitaries, statevector runs, equivalence checks.

Basis convention (fixed once, all verifications depend on it): qubit 0 is
the most significant bit of the basis index, so |q0 q1 ... q_{n-1}> has
index sum(q_k * 2**(n-1-k)).

A compiled plan keeps its passes by wire, and one function, ``_placed``,
lays them onto a state that holds each wire at a given position: ``apply``
runs the register's own placement, kept on the plan, and every dense
check the placement on its columns.  A check runs the basis columns
|x>|0...0> of its d data wires through the circuit at once (d = n for a
unitary), in the end as one state of |M| + d wires, the circuit's moved
wires M (the wires its compiled block and CNOT passes move) followed by
the column index.  Every other wire meets only diagonal phase tables, so a
basis column keeps its bit there, and the columns are 2^|M| x 2^d entries.
A wire no pass has moved yet still holds its starting bit too, so the
columns grow as the plan moves wires: they start as one row per column,
and each pass runs on the wires moved up to it (``Plan.segments``).  The
columns are compared with the reference in place: lam times a phased
permutation (``IndexMap``) is subtracted from their data rows entry by
entry, and lam times any other reference one row block at a time, a
matrix's rows as they are and the transform's (``BitReversedIFFT``) made
as they are read, so a check against an action holds no 2^d x 2^d array.
One byte budget covers the columns, dense unitaries and ``fourier``'s
search and scans: the bytes of a dense unitary at the qubit guard, 12 by
default (256 MiB), so |M| + d may not exceed 24, and a unitary's 2n may
not either; override the 12 with the GMSFORGE_MAX_DENSE_QUBITS
environment variable, a positive integer (any other value raises
ArgumentError).  A request above it raises ``circuit.GuardError``.  The
statevector path has no such guard and is used for wide-register parity
checks.

Every path runs its placed passes through ``_lay`` on the numpy kernels,
three of them.
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

Each of those passes over one state is one long product.  A phase table
that holds a pulse also spans the last ``WINDOW`` wires whenever it then
holds at most ``kernels.CHUNK`` entries, so the state's innermost axis
under it is at least 2^WINDOW entries long; a table of folded diagonals
alone, as between CNOTs, keeps its own wires.  A window flushed while the
open table spans its wires, or can widen to them within ``CHUNK``
entries, is made real: each pending matrix is split as diag(p1, p2) @
[[c, -s], [s, c]] @ diag(1, psi) (``_zyz``), the right diagonal joins the
closing table, the left one stays pending for the next table and the
block holds only the real rotations.  The bottom window's block starts
at its first wire with a pending matrix; a block above it spans its
window but moves only the wires from its first pending one.
``kernels.apply_block`` runs a block in one of three forms: one state's
bottom wires as float rows times the block's real form, a real block on
the float view, or a complex block on the complex view.

Each ``Circuit`` is fused and folded once, in one pass over its gates,
and its tables are built after that pass, the tables of one width in one
vectorised sweep: ``_compile`` turns it into a ``Plan`` of passes on its
first run, the plan is kept on the circuit (an immutable value) for the
circuit's lifetime, and every run only executes it.  The plan's tables are
the memory this costs, about 2.5 MiB for ``qft_gms(16)`` and 2 MiB for
``phase_polynomial_identity(17)``.  ``_run`` returns the passes by kind,
and ``equiv_on_ancilla`` reports them with the bytes they ran over, the
plan's bytes, moved wires and compile time.

The textbook references a check compares against are given by their
action on a state (the classes ``IndexMap``, which ``AllOnesSign``
builds, and ``BitReversedIFFT``), not by a gate list to be simulated.
"""

from __future__ import annotations

import bisect
import cmath
import math
import os
import time
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .circuit import ArgumentError, Circuit, guard
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


def max_dense_qubits() -> int:
    """The qubit guard: GMSFORGE_MAX_DENSE_QUBITS, a positive integer, or
    the default when it is unset or blank."""
    raw = os.environ.get("GMSFORGE_MAX_DENSE_QUBITS", "")
    if not raw.strip():
        return DEFAULT_DENSE_GUARD
    try:
        qubits = int(raw)
    except ValueError:
        qubits = 0
    if qubits < 1:
        raise ArgumentError(
            f"GMSFORGE_MAX_DENSE_QUBITS must be a positive integer, not {raw!r}")
    return qubits


def guard_bytes(name: str, asked: int) -> None:
    """Refuse ``asked`` bytes above the byte budget, 16 << 2 *
    max_dense_qubits(): the size of a dense unitary at the qubit guard."""
    qubits = max_dense_qubits()
    guard(name, asked, 16 << 2 * qubits, "bytes", f"a dense unitary at {qubits} "
          "qubits; set GMSFORGE_MAX_DENSE_QUBITS to raise it")


# A single-qubit matrix [[m00, m01], [m10, m11]] is the tuple (m00, m01,
# m10, m11) of Python numbers: fusing a run of gates costs a few scalar
# products per gate instead of a numpy array each.
_R = 1 / math.sqrt(2.0)
_H = (_R, _R, _R, -_R)
_I = (1.0, 0.0, 0.0, 1.0)
_X = (0.0, 1.0, 1.0, 0.0)


def _mul(m: tuple, p: tuple) -> tuple:
    """The matrix product m @ p."""
    a, b, c, d = m
    e, f, g, h = p
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _one_qubit_matrix(g) -> tuple:
    if g.kind == "H":
        return _H
    c, s = math.cos(g.theta / 2), math.sin(g.theta / 2)
    if g.kind == "RX":
        return (c, -1j * s, -1j * s, c)
    if g.kind == "RY":
        return (c, -s, s, c)
    return (c - 1j * s, 0.0, 0.0, c + 1j * s)  # RZ


def _table_wires(wires, n: int, pulsed: bool) -> set[int]:
    """The wires a phase table over ``wires`` spans: for a table that holds
    a pulse, the last ``WINDOW`` wires too when the table then holds at
    most ``CHUNK`` entries, so that the state's innermost axis under the
    table is at least 2^WINDOW long instead of one or two entries.  A table
    of diagonals alone is not padded: between CNOTs it is one or two wires,
    and padding made such plans about 8x larger."""
    padded = set(wires).union(range(max(0, n - WINDOW), n))
    return padded if pulsed and 1 << len(padded) <= CHUNK else set(wires)


@lru_cache(maxsize=4096)
def _layout(wires: tuple, n: int) -> tuple[tuple, tuple]:
    """For a table over the sorted ``wires``: a view shape for a (dim,
    batch) state less its batch axis, and the table's shape against that
    view less the batch.  Runs of neighbouring wires share one axis."""
    view, table = [], []
    for q in range(n):
        inside = q in wires
        if q and inside == (q - 1 in wires):
            view[-1] *= 2
            table[-1] *= 1 + inside
        else:
            view.append(2)
            table.append(1 + inside)
    return tuple(view), tuple(table)


def _sweep(tables: Sequence[tuple], k: int) -> np.ndarray:
    """The phase tables of ``tables``, records (wires, pairs, diag) over k
    wires each, built in one recurrence as a (len(tables), 2^k) array.

    A record is a run of GMS pulses in the X basis, the product of their
    exp(-i/2 sum_{i<j} chi_ij z_i z_j) given by their pair angles (i, j,
    chi), times the diagonal matrices ``diag`` maps wires to: diagonal
    factors commute, so the run is one table.  Its sorted ``wires`` are the
    ones ``_table_wires`` gives, padding included: a wire neither coupled
    nor folded brings the factor 1, so the table comes out repeated over it.
    With no pulse every chi is 0, and the table is the Kronecker product of
    the diagonals.  z = 1 - 2b over the bits b of the wires, first wire most
    significant.  Each table is built from its pair factors exp(-i chi_ij /
    2), one vectorised exp of every table's summed k x k angle matrix, and
    filled in place with a few numpy calls per wire for all the tables at
    once: no transcendental call per entry.  Every entry takes the products
    it takes in a table built alone, in the same order; numpy rounds a
    complex product on arrays of another length in its own way, so the two
    agree to an ulp or two.
    """
    size = len(tables)
    idx, chis, slots, fields, es = [], [], [], [], []
    for t, (wires, pairs, diag) in enumerate(tables):
        row = t * k
        pos = {q: row + a for a, q in enumerate(wires)}  # q's flat index in field
        idx += [pos[i] * k + pos[j] - row for i, j, _ in pairs]  # (t, i, j) in chi
        chis += [c for _, _, c in pairs]
        # field[j] is the factor wire j brings at z_j = +1, its conjugate at
        # z_j = -1: the product of its couplings to the wires already in
        # the table.  A diagonal diag(m00, m11) is e u^z_j with u = sqrt(m00
        # / m11), of unit modulus, and e = m00 / u: u starts wire j's field,
        # e the table.
        e = 1.0
        for q, (a, _, _, b) in diag.items():
            u = cmath.sqrt(a / b)
            slots.append(pos[q])
            fields.append(u)
            e *= a / u
        es.append(e)
    # chi summed over each table's pulses, pair by pair in order
    chi = np.bincount(np.array(idx, np.intp), chis, size * k * k).reshape(size, k, k)
    # pair[t, i, j, b], the factor exp(-i chi_ij z_i z_j / 2) at z_i z_j = 1 - 2b
    pair = np.exp(np.multiply.outer(chi + chi.transpose(0, 2, 1), [-0.5j, 0.5j]))
    field = np.ones(size * k, dtype=np.complex128)
    field[np.array(slots, np.intp)] = fields
    field = field.reshape(size, k, 1)
    phases = np.empty((size, 1 << k), dtype=np.complex128)
    phases[:, 0] = es
    # each wire w, last first, becomes the tables' new most significant bit
    for w in reversed(range(k)):
        s = 1 << (k - 1 - w)
        low, f = phases[:, :s], field[:, w]
        np.multiply(low, f.conj(), out=phases[:, s:2 * s])
        low *= f
        field = (field[:, :w, None] * pair[:, w, :w, :, None]).reshape(size, w, 2 * s)
    return phases


def _phase_tables(tables: Sequence[tuple]) -> list[np.ndarray]:
    """For each record (wires, pairs, diag) of ``tables`` (``_sweep``), its
    flat table of 2^k entries over its k wires.  The tables of one width
    are one ``_sweep``, and each is a row of its sweep's array."""
    out = [None] * len(tables)
    for k in {len(wires) for wires, _, _ in tables}:
        group = [t for t, (wires, _, _) in enumerate(tables) if len(wires) == k]
        for t, phases in zip(group, _sweep([tables[t] for t in group], k)):
            out[t] = phases
    return out


def _zyz(m: tuple) -> tuple[tuple, tuple, complex]:
    """Split a 2x2 unitary m, up to a global phase, as m = diag(p1, p2) @
    [[c, -s], [s, c]] @ diag(1, psi): c = |m00|, s = |m10|, p1 = m00 / c,
    p2 = m10 / s, psi = m11 / (c p2).  Returns (p1, p2), the real middle
    factor and psi.  When c is at most ``ROUNDING`` the split is
    diag(m01, m10) @ X @ I."""
    m00, m01, m10, m11 = m
    c, s = abs(m00), abs(m10)
    if c <= ROUNDING:
        return (m01, m10), _X, 1.0
    p2 = m10 / s if s else 1.0
    return (m00 / c, p2), (c, -s, s, c), m11 / (c * p2)


@dataclass(frozen=True)
class Plan:
    """A circuit of ``n`` wires compiled for ``_run``.

    ``steps`` are the passes over the state in order, each held by wire as
    (kernel, wires, array), the kernel a name on ``BACKEND``: a block its
    wires from its first pending wire and its array over its whole window,
    the identity on the window's wires above them; a CNOT (control,
    target) and no array; a phase table its sorted wires, padding
    included, and its flat 2^k table.  ``_placed`` alone lays them onto a
    state.  ``passes`` counts them by kind, and ``nbytes`` is what the
    plan's phase tables and blocks hold.  ``moved`` are the sorted wires of
    the block and CNOT passes: every other wire meets only diagonal tables,
    so a basis state keeps its bit there.  ``segments`` cut the steps where
    a block or CNOT first moves a wire, each as (the wires it first moves,
    its first step, the step after its last); until then a wire keeps the
    bit it started with.
    ``compile_s`` is the seconds ``_compile`` took.
    """

    n: int
    steps: tuple[tuple[str, tuple[int, ...], np.ndarray | None], ...]
    passes: dict[str, int]
    nbytes: int
    moved: tuple[int, ...]
    segments: tuple[tuple[tuple[int, ...], int, int], ...]
    compile_s: float

    @cached_property
    def register(self) -> list[tuple]:
        """The steps placed on the plan's own register, built on first use."""
        return list(_placed(self.steps, range(self.n), self.n))

    def pass_bytes(self, d: int) -> int:
        """The bytes the passes of ``_columns`` run over on d data wires:
        16 * 2^(m + d) for each step, m the wires moved up to that step."""
        total, m = 0, 0
        for new, start, end in self.segments:
            m += len(new)
            total += (end - start) * 16 << (m + d)
        return total


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
    a gate's wire or before a CNOT's ``apply_cnot`` pass is not flushed but
    multiplied into the table, which commutes with it; so is one on any
    wire the open table spans when a window is flushed.  At the end a
    diagonal one rides in its window's block when the window has one and
    the last table does not span the wire, and joins the last table
    otherwise.  The table, with or without pulses, is one pass when another
    pass or the end closes it.  So a run of pulses costs one phase pass
    plus one block pass per window that holds a non-diagonal pending
    matrix.  The pass records each table's inputs in its step as it
    closes, its wires (``_table_wires``), its pulses' pair angles and its
    folded diagonals; after the pass every table is built at once, one
    ``_sweep`` per table width (``_phase_tables``).

    A window flushed for a pulse, XX or CP while the open table spans its
    pending wires, or can widen to them within ``CHUNK`` entries, becomes a
    real block: each pending matrix is split (``_zyz``) into a right
    diagonal, which joins the closing table, a real rotation, which goes
    into the block, and a left diagonal, which stays pending and which the
    gate's own table folds when the wire is one of the gate's.  Before a
    CNOT or at the end no table follows the block, so nothing is split
    there.  The bottom window's block starts at its first pending wire,
    which on one state makes it a narrower product.  Every other block
    spans its window, the identity on the wires above its first pending
    one, and its step holds the wires from that one.  The steps are held by
    wire (``Plan``), for ``_placed`` to lay onto a state.
    """
    start = time.perf_counter()
    n = circuit.n_qubits
    pending: dict[int, tuple] = {}
    steps = []
    run, folded = [], {}  # the open table: its pulses' pair angles and folded factors
    span = set()  # the wires of the open table's pulses and factors

    def close_run():
        if span:
            wires = tuple(sorted(_table_wires(span, n, bool(run))))
            # the table's record: its table is built after the pass
            steps.append(("apply_scale", wires, (list(run), dict(folded))))
            run.clear()
            folded.clear()
            span.clear()

    def push(q, m):
        prev = pending.get(q)
        if prev is None:
            pending[q] = m
        elif prev is _H and m is _H:
            del pending[q]
        else:
            pending[q] = _mul(m, prev)

    def diagonal(q) -> bool:
        m = pending[q]
        return abs(m[1]) + abs(m[2]) <= ROUNDING

    def diagonals(wires) -> dict:  # popped from the pending matrices
        return {q: pending.pop(q) for q in wires if q in pending and diagonal(q)}

    def join(diag):
        for q, m in diag.items():
            prev = folded.get(q)
            folded[q] = m if prev is None else _mul(m, prev)
        span.update(diag)

    def flush(wires, split=False):
        # every block is built before the first one closes the open table,
        # so the right diagonals of all of them can join it; the left ones
        # are pending only after the blocks
        if not any(q in pending for q in wires):
            return
        # the wires the open table spans when it closes: padded only if it
        # holds a pulse, as ``close_run`` records it
        table = _table_wires(span, n, bool(run)) if span else set()
        join(diagonals(table))
        blocks, lefts, rights = [], {}, {}
        for w in {(n - 1 - q) // WINDOW for q in wires if q in pending}:
            hi = n - WINDOW * w
            factors = {q: pending.pop(q) for q in range(max(0, hi - WINDOW), hi)
                       if q in pending}
            # a table may widen to the window while it stays within CHUNK
            wider = table.union(factors)
            if split and span and (wider == table or 1 << len(wider) <= CHUNK):
                table = wider
                for q, m in factors.items():
                    (p1, p2), factors[q], psi = _zyz(m)
                    if psi != 1:
                        rights[q] = (1.0, 0.0, 0.0, psi)
                    if p1 != 1 or p2 != 1:
                        lefts[q] = (p1, 0.0, 0.0, p2)
            # the bottom window's block starts at its first factor; another
            # spans its window, but acts on the wires from its first factor
            first = min(factors)
            top = first if w == 0 else max(0, hi - WINDOW)
            mats = np.array([factors.get(q, _I) for q in range(top, hi)])
            blk = mats[0].reshape(2, 2)
            for m in mats[1:].reshape(-1, 2, 2):
                size = 2 * len(blk)
                blk = (blk[:, None, :, None] * m[None, :, None, :]).reshape(size, size)
            blocks.append(("apply_block", tuple(range(first, hi)), blk))
        join(rights)
        close_run()
        steps.extend(blocks)
        pending.update(lefts)

    for g in circuit.gates:
        kind, wires = g.kind, g.qubits
        if kind in ("H", "RX", "RY", "RZ"):
            push(wires[0], _one_qubit_matrix(g))
        elif kind == "PHASE":
            # a global phase commutes with every gate: ride on a pending
            # matrix, or on wire 0 as a multiple of the identity
            q = next(iter(pending), 0)
            phase = cmath.exp(1j * g.theta)
            pending[q] = tuple(x * phase for x in pending.get(q, _I))
        elif kind == "CNOT":
            join(diagonals(wires))
            flush(wires)
            close_run()
            steps.append(("apply_cnot", wires, None))
        else:
            if kind != "CP":  # the frame: Hadamards on the gate's wires
                for q in wires:
                    push(q, _H)
            diag = diagonals(wires)
            flush(wires, split=True)
            diag.update(diagonals(wires))  # the left diagonals of a split
            join(diag)
            if kind == "GMS":
                run.extend(g.pair_angles())
            else:  # XX, or CP as the pair angle -theta/2, on the sorted pair
                run.append((*sorted(wires), g.theta if kind == "XX" else -g.theta / 2))
            if kind == "CP":
                t = 0.25j * g.theta
                join({wires[0]: (cmath.exp(-t), 0.0, 0.0, cmath.exp(t)),
                      wires[1]: (1.0, 0.0, 0.0, cmath.exp(2 * t))})
            else:
                pending.update(dict.fromkeys(wires, _H))
            span.update(wires)
    # at the end a diagonal matrix rides in its window's block when the
    # window has one and the last table does not span the wire
    blocked = {(n - 1 - q) // WINDOW for q in pending if not diagonal(q)}
    join(diagonals([q for q in pending if (n - 1 - q) // WINDOW not in blocked]))
    flush(list(pending))
    close_run()
    built = iter(_phase_tables([(w, *a) for name, w, a in steps if name == "apply_scale"]))
    steps = [(name, wires, next(built) if name == "apply_scale" else a)
             for name, wires, a in steps]
    arrays = [a for _, _, a in steps if a is not None]
    for a in arrays:
        a.flags.writeable = False  # shared by every run of the plan
    passes = {kind: sum(name == kernel for name, _, _ in steps) for kind, kernel in
              (("block", "apply_block"), ("phase", "apply_scale"), ("cnot", "apply_cnot"))}
    moved, cuts = set(), []
    for i, (name, wires, _) in enumerate(steps):
        new = () if name == "apply_scale" else tuple(q for q in wires if q not in moved)
        if new or not cuts:
            cuts.append((new, i))
            moved.update(new)
    segments = tuple((new, i, end) for (new, i), end in
                     zip(cuts, [i for _, i in cuts[1:]] + [len(steps)]))
    return Plan(n, tuple(steps), passes, sum(a.nbytes for a in arrays),
                tuple(sorted(moved)), segments, time.perf_counter() - start)


def _plan(circuit: Circuit) -> Plan:
    """The circuit's plan, compiled on first use and kept on the circuit,
    an immutable value, so it lives exactly as long as the circuit."""
    plan = getattr(circuit, "_plan", None)
    if plan is None:
        plan = _compile(circuit)
        object.__setattr__(circuit, "_plan", plan)
    return plan


def _placed(steps: Sequence[tuple], at, width: int):
    """Yield a plan's ``steps``, all of them or a segment, as kernel calls on
    a (2^width, batch) state that holds wire q at position ``at[q]``,
    position 0 most significant: each a kernel name on ``BACKEND``, the
    view the kernel takes of the state (a shape less its batch axis, or
    None for the state as it is) and its arguments.  A CNOT runs on its
    wires' masks, and a block at its first wire's position, with its wires
    in order below it.  A block that spans idle wires above its own is
    kron(I, B), the identity on whatever sits at those positions, so it
    runs over as many of them as the state has above its wires: on the
    register its whole window, at position 0 B alone.  A phase table is
    laid out on its wires' positions, and takes its entry at 0 on a wire
    outside ``at``: an ancilla that no step has moved before these, which
    the state holds in |0>."""
    for name, wires, a in steps:
        if name == "apply_cnot":
            yield name, None, tuple(1 << (width - 1 - at[q]) for q in wires)
        elif name == "apply_block":
            end = at[wires[0]] + len(wires)  # the position below its wires
            top = max(0, end + 1 - len(a).bit_length())
            size = 1 << (end - top)
            yield name, None, (a[:size, :size], top)
        else:
            table = a.reshape((2,) * len(wires))[
                tuple(slice(None) if q in at else 0 for q in wires)]
            kept = sorted((at[q], i) for i, q in enumerate(q for q in wires if q in at))
            view, shape = _layout(tuple(p for p, _ in kept), width)
            table = table.transpose([i for _, i in kept]).reshape(*shape, 1)
            yield name, view, (table,)


def _lay(calls, st: np.ndarray) -> None:
    """Make the kernel calls ``_placed`` yields on the (dim, batch) array in
    place, each kernel looked up on ``BACKEND`` at its pass."""
    batch = st.shape[1]
    for name, view, args in calls:
        getattr(BACKEND, name)(st if view is None else st.reshape(*view, batch), *args)


def _run(circuit: Circuit, st: np.ndarray) -> dict[str, int]:
    """Apply every gate of ``circuit`` to the (2^n, batch) array in place,
    through the placement of its plan on the register, which the plan
    keeps.  Return the passes over the state by kind (block, phase, cnot),
    a copy the caller may keep."""
    plan = _plan(circuit)
    _lay(plan.register, st)
    return dict(plan.passes)


def _dense_zeros(n: int, d: int) -> np.ndarray:
    """A zero 2^n x 2^d array, allocated only under the byte budget."""
    guard_bytes("dense", 16 << (n + d))
    return np.zeros((1 << n, 1 << d), dtype=np.complex128)


@lru_cache(maxsize=None)
def _bits(w: int) -> np.ndarray:
    """The bits of every w-bit index, first most significant, as a read-only
    (2^w, w) array of 0 and 1, built once per width."""
    bits = np.arange(1 << w)[:, None] >> np.arange(w - 1, -1, -1) & 1
    bits.flags.writeable = False
    return bits


def _spread(k: int, masks: Sequence[int]) -> np.ndarray:
    """Every k-bit index with bit p, first most significant, moved to
    ``masks[p]``, distinct single bits (dropped where that is 0): the outer
    OR of the spreads of the index's top and bottom halves, each its bits
    times its masks."""
    top, bottom = (_bits(len(ms)) @ np.array(ms, dtype=np.int64)
                   for ms in (masks[:k // 2], masks[k // 2:]))
    return np.bitwise_or.outer(top, bottom).reshape(-1)


def _grow(state: np.ndarray, m: int, d: int, j: int, p: int | None) -> None:
    """Grow the state of m + d wires at the front of the flat ``state`` to
    m + 1 + d wires in place, a new wire at position j: in column x it holds
    x's bit p, first most significant, or 0 when p is None.  The rows above
    j are moved back to front in log2 chunks, each chunk [h/2, h) written
    past its own read, and the bits of the 2^d columns are the only
    temporary."""
    hi, dim = 1 << j, 1 << d
    old = state[:1 << (m + d)].reshape(hi, -1, dim)
    new = state[:2 << (m + d)].reshape(hi, 2, -1, dim)
    bit = None if p is None else np.arange(dim) >> (d - 1 - p) & 1
    top = hi
    while top:
        low = top // 2
        src, dst = old[low:top], new[low:top]
        # the bit-1 half first: the last chunk's bit-0 half is its own read
        if bit is None:  # an ancilla: a fill and a copy, cheaper than products
            dst[:, 1] = 0.0
            if low:
                dst[:, 0] = src
        else:
            np.multiply(src, bit, out=dst[:, 1])
            np.multiply(src, 1 - bit, out=dst[:, 0] if low else src)
        top = low


def _columns(circuit: Circuit, data: Sequence[int]
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, int]]:
    """Run the basis columns |x>|0...0> of the ``data`` wires through the
    circuit on its moved wires M (``Plan.moved``), the only wires where a
    column leaves its bits; return the 2^|M| x 2^d outputs, for each data
    state y the row of its bits on M (``rows``) and its bits on the data
    wires outside M (``keys``), and the passes over the columns by kind.
    Column x's row r stands for the register state with r's bits on M and
    x's elsewhere, so column x holds V's data row y only where keys[y] ==
    keys[x].

    The columns grow as the plan moves wires (``Plan.segments``): they
    start as one row per column, and before the step that first moves a
    wire that wire's row bit is inserted (``_grow``), the column's own bit
    for a data wire and 0 for an ancilla.  Each segment runs through its
    steps placed (``_placed``) on the wires moved so far, in order,
    followed by the column index: a data wire not yet moved, or outside M,
    takes the column's own bit, an ancilla not yet moved stays in |0>.  At
    the end the columns are one state of |M| + d wires, M followed by the
    column index, held in one buffer under the dense guard, 16 << (|M| +
    d) bytes, in which they grew.
    """
    plan, d = _plan(circuit), len(data)
    k = len(plan.moved)
    at = {q: p for p, q in enumerate(plan.moved)}
    rows = _spread(d, [1 << (k - 1 - at[q]) if q in at else 0 for q in data])
    keys = _spread(d, [0 if q in at else 1 << (d - 1 - p) for p, q in enumerate(data)])
    cols = _dense_zeros(k, d)
    state = cols.reshape(-1)
    state[:1 << d] = 1.0
    index = {q: p for p, q in enumerate(data)}
    moved: list[int] = []
    for new, start, end in plan.segments:
        for q in new:
            j = bisect.bisect(moved, q)
            _grow(state, len(moved), d, j, index.get(q))
            moved.insert(j, q)
        m = len(moved)
        place = {q: p for p, q in enumerate(moved)}
        place.update((q, m + p) for p, q in enumerate(data) if q not in place)
        _lay(_placed(plan.steps[start:end], place, m + d),
             state[:1 << (m + d)].reshape(-1, 1))
    return cols, rows, keys, dict(plan.passes)


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the circuit (product of gate matrices in order),
    held under the dense guard: its columns run on the moved wires
    (``_columns``) and are scattered into the 2^n x 2^n output."""
    n = circuit.n_qubits
    guard_bytes("dense", 16 << 2 * n)
    cols, _, keys, _ = _columns(circuit, range(n))
    moved = _plan(circuit).moved
    if len(moved) == n:
        return cols
    out = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    rows = _spread(len(moved), [1 << (n - 1 - q) for q in moved])  # cols' rows, 0 off M
    x, step = np.arange(1 << n), max(1, CHUNK >> n)
    for r in range(0, len(cols), step):
        out[rows[r:r + step, None] | keys, x] = cols[r:r + step]
    return out


def apply(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Gate-wise application to a statevector; no dense-width guard."""
    dim = 1 << circuit.n_qubits
    state = np.asarray(state, dtype=np.complex128)
    if state.shape != (dim,):
        raise ValueError(f"state has shape {state.shape}, expected ({dim},)")
    st = state.reshape(dim, 1).copy()
    _run(circuit, st)
    return st.reshape(dim)


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


def _pivot(v, at, tol: float) -> tuple[bool, complex]:
    """The phase lam of u = lam * V, read at V's pivot and renormalized to
    unit modulus; u's entry there is ``at(row, column)``.  The pivot is an
    entry of V's largest magnitude, so lam never divides by a near-zero.  A
    matrix has it at its first such entry in row-major order, scanned one
    row block ``v[r:r + step]`` at a time, each read once; a reference that
    acts on a state names its own (``IndexMap.pivot``,
    ``BitReversedIFFT.pivot``), so the phase a failing check reports does
    not depend on how its entries round.  (False, 1) when V is 0 there or
    |u| is at most ``tol``: there is no phase to read, only rounding.  A
    unitary V on d wires has |V| >= 2^(-d/2) at its pivot, so a pass needs
    |u| >= 2^(-d/2) - tol there, and at the default tol of 1e-9 this rule
    fails no check that would pass; under a tol near 2^(-d/2) an entry
    within tol of 0 fails, as an exact 0 does."""
    if isinstance(v, np.ndarray):
        height, width = v.shape
        step, top = max(1, CHUNK // width), -1.0
        for start in range(0, height, step):
            blk = v[start:start + step]
            mag = np.abs(blk)
            i, j = divmod(int(np.argmax(mag)), width)
            if mag[i, j] > top:  # the first largest block wins a tie
                top, r, c, b = mag[i, j], start + i, j, blk[i, j]
    else:
        r, c, b = v.pivot
    u = at(r, c)
    if not b or abs(u) <= tol:
        return False, 1.0 + 0j
    return True, u / b / abs(u / b)


def equiv_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-9) -> PhaseMatch:
    """Test u == phase * v entrywise within tol, the phase read at v's
    pivot (``_pivot``).  Both scans run over blocks of rows, so their
    temporaries are one block, not the size of u.
    """
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    ok, lam = _pivot(v.reshape(len(v), -1), lambda r, c: u.reshape(len(u), -1)[r, c], tol)
    dev = float(np.max([np.abs(a - lam * b).max()
                        for a, b in zip(_row_blocks(u), _row_blocks(v))]))
    return PhaseMatch(ok and dev <= tol, lam, dev)


@dataclass(frozen=True)
class AncillaMatch:
    ok: bool
    failure: str | None  # None | "leakage" | "mismatch"
    phase: complex
    max_deviation: float
    leakage: float
    passes: dict[str, int]  # passes over the columns by kind, ``Plan.passes``
    pass_bytes: int  # the bytes those passes ran over, ``Plan.pass_bytes``
    plan_bytes: int  # held in the circuit's plan, ``Plan.nbytes``
    moved_wires: tuple[int, ...]  # the wires the columns ran on, ``Plan.moved``
    compile_s: float  # the seconds the plan's compile took, ``Plan.compile_s``


def equiv_on_ancilla(circuit: Circuit, reference, tol: float = 1e-9) -> AncillaMatch:
    """Check the circuit acts as ``reference`` on the data register: a 2^d
    x 2^d unitary, a reference that makes its rows as they are read
    (``BitReversedIFFT``), or an ``IndexMap``.

    The data register is the circuit's non-ancilla wires, or the whole
    register when ``reference`` is as wide as the circuit (then there is
    no leakage).  Every data basis state |x>|0...0> is run through the
    circuit on its moved wires M (``_columns``); the result must be
    (V|x>)|0...0> with one common global phase lam, read at V's pivot
    (``_pivot``), and "no phase" when column x's run does not hold the
    pivot's row or holds it within tol of 0.  lam * V is subtracted in
    place from the data rows of the columns, where column x holds V's rows
    that keep x's bits outside M: an ``IndexMap`` at its one entry per
    column, any other reference one row block ``reference[r:r + step]`` at
    a time, a matrix's rows as they are and a transform's made as they are
    read.  V's entries on the other data rows count toward the deviation
    as |lam * V|.  One pass of row maxima then gives the deviation from the
    data rows and the residual population on the rows with an ancilla bit
    of M set, which above tol is reported as the distinct "leakage"
    failure; an ancilla outside M stays in |0>.  The columns are held at
    once under the dense guard; every other temporary is at most a row
    block, 2^d entries or a row's float, so a check against an action
    holds no 2^d x 2^d array.
    """
    n = circuit.n_qubits
    full = reference.shape == (1 << n, 1 << n)
    data = range(n) if full else circuit.data_qubits
    ddim = 1 << len(data)
    if reference.shape != (ddim, ddim):
        raise ArgumentError(
            f"reference acts on {reference.shape}; the data register has "
            f"dimension {ddim}, the whole register {1 << n}")
    cols, rows, keys, passes = _columns(circuit, data)
    plan = _plan(circuit)
    pass_bytes = plan.pass_bytes(len(data))
    ok, lam = _pivot(reference, lambda r, c: cols[rows[r], c] if keys[r] == keys[c] else 0, tol)
    if isinstance(reference, IndexMap):
        sub, dest = lam * reference.phase, reference.dest
        held = keys[dest] == keys
        cols[rows[dest[held]], np.arange(ddim)[held]] -= sub[held]
        off = np.abs(sub[~held]).max(initial=0.0)
    else:
        step, off, split = max(1, CHUNK // ddim), 0.0, keys.any()
        for r in range(0, ddim, step):
            sub = lam * reference[r:r + step]
            if split:  # a row of the block is held by some columns only
                held = keys[r:r + step, None] == keys
                far = np.abs(sub)
                far[held] = 0.0
                off = max(off, far.max())
                i, j = np.nonzero(held)
                cols[rows[r + i], j] -= sub[i, j]
            elif len(cols) == ddim:  # M is the data wires: rows is arange
                cols[r:r + step] -= sub
            else:  # every data wire moves: each data row is one row of cols
                cols[rows[r:r + step]] -= sub
    peaks = np.concatenate([np.abs(b).max(axis=1) for b in _row_blocks(cols)])
    dev = max(float(peaks[rows].max()), float(off))
    peaks[rows] = 0.0
    leakage = float(peaks.max())
    if leakage > tol:
        return AncillaMatch(False, "leakage", 1.0 + 0j, float("inf"), leakage,
                            passes, pass_bytes, plan.nbytes, plan.moved, plan.compile_s)
    ok = ok and dev <= tol
    return AncillaMatch(ok, None if ok else "mismatch", lam, dev, leakage,
                        passes, pass_bytes, plan.nbytes, plan.moved, plan.compile_s)


# ---------------------------------------------------------------------------
# References that act on a state
# ---------------------------------------------------------------------------
#
# Each reference below is the textbook unitary V on d data wires, given by
# its action rather than by a gate list.  Calling it maps a (2^d, batch)
# array of states to their images; ``matrix()`` is V itself, one 2^d x 2^d
# array under the dense guard, for tests.  A check holds neither: it
# compares an ``IndexMap`` in place and reads the transform's rows one
# block at a time.  Nothing of size 2^d exists before the first use.

class IndexMap:
    """V|x> = phase[x] |dest[x]>: ``build()`` returns the permutation dest
    of the 2^d basis indices on first use, ``phases()`` the unit-modulus
    phases (all 1 when it is None)."""

    def __init__(self, d: int, build, phases=None):
        self.d, self.shape = d, (1 << d, 1 << d)
        self._build, self._phases = build, phases or (lambda: np.ones(1 << d))

    @cached_property
    def dest(self) -> np.ndarray:
        return self._build()

    @cached_property
    def phase(self) -> np.ndarray:
        return self._phases()

    @property
    def pivot(self) -> tuple[int, int, complex]:
        """(row, column, entry) of V's pivot: its largest |phase|, on the
        lowest destination row among ties."""
        mag = np.abs(self.phase)
        tied = np.flatnonzero(mag == mag.max())
        c = int(tied[np.argmin(self.dest[tied])])
        return int(self.dest[c]), c, np.complex128(self.phase[c])

    def __call__(self, cols: np.ndarray) -> np.ndarray:
        out = np.empty_like(cols, np.result_type(cols, self.phase))
        out[self.dest] = (self.phase * cols.T).T
        return out

    def matrix(self) -> np.ndarray:
        m = _dense_zeros(self.d, self.d)
        m[self.dest, np.arange(len(m))] = self.phase
        return m


def AllOnesSign(d: int) -> IndexMap:
    """V = diag(1, ..., 1, -1): the sign of the all-ones index flips."""
    return IndexMap(d, lambda: np.arange(1 << d),
                    lambda: np.append(np.ones((1 << d) - 1), -1.0))


class BitReversedIFFT:
    """V|k> = sum_j exp(2 pi i j rev(k) / 2^d) |j> / sqrt(2^d): the
    transform with bit-reversed input.  On states it is a normalised
    inverse FFT of the bit-reversed state, O(2^d d) per column.  Its rows
    are made as they are read: ``v[r0:r1]`` gathers each entry
    V[j, k] = w^(j rev(k) mod 2^d) / sqrt(2^d), w = exp(2 pi i / 2^d), from
    a table of the 2^d scaled roots of unity, so a check holds one row
    block of V at a time."""

    def __init__(self, d: int):
        self.d, self.shape = d, (1 << d, 1 << d)
        # bit p, first most significant, moves to bit p: the bits reversed
        self.reverse = IndexMap(d, lambda: _spread(d, [1 << p for p in range(d)]))

    @cached_property
    def roots(self) -> np.ndarray:
        """w^m / sqrt(2^d) for m = 0 ... 2^d - 1."""
        dim = 1 << self.d
        return np.exp(2j * math.pi / dim * np.arange(dim)) / math.sqrt(dim)

    @property
    def pivot(self) -> tuple[int, int, complex]:
        """(0, 0, 2^(-d/2)): every entry has magnitude 2^(-d/2), and V[0, 0]
        is ``roots[0]`` exactly."""
        return 0, 0, self.roots[0]

    def __call__(self, cols: np.ndarray) -> np.ndarray:
        return np.fft.ifft(self.reverse(cols), axis=0, norm="ortho")

    def __getitem__(self, rows: slice) -> np.ndarray:
        j = np.arange(self.shape[0])[rows]
        m = np.multiply.outer(j, self.reverse.dest)
        m &= self.shape[0] - 1
        return self.roots[m]

    def matrix(self) -> np.ndarray:
        guard_bytes("dense", 16 << 2 * self.d)
        return self[:]


def trace_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """|tr(U^dag V)| / dim, in [0, 1]."""
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    return abs(np.vdot(u, v)) / u.shape[0]
