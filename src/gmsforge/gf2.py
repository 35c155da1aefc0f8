"""Boolean linear algebra for CNOT-only (linear reversible) circuits.

Matrix convention: a transfer matrix acts on column vectors of wire
parities, x -> Mx over GF(2).  A CNOT with control c and target t updates
the accumulated matrix by "row t ^= row c" (the target wire picks up the
control wire's parity).  Worked 3x3 example: CNOT(0 -> 1) then CNOT(0 -> 2)
starting from I gives

    [1 0 0]
    [1 1 0]      column 0 carries the shared control,
    [1 0 1]      rows 1 and 2 are the targets.

A fan layer (one control, many targets) therefore shows up as one column
with several off-diagonal ones, which is what the triangular decomposition
below reads off.  Rows are bit-packed into Python ints (bit j = column j)
so row updates are single XORs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .circuit import ArgumentError


@dataclass(frozen=True)
class Gf2Matrix:
    n: int
    rows: tuple[int, ...]  # rows[i] bit j == entry (i, j)

    def __post_init__(self):
        if len(self.rows) != self.n:
            raise ArgumentError("row count does not match dimension")
        limit = 1 << self.n
        if any(r < 0 or r >= limit for r in self.rows):
            raise ArgumentError("row has bits outside the matrix width")

    @classmethod
    def identity(cls, n: int) -> "Gf2Matrix":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "Gf2Matrix":
        """The square matrix with these rows of 0/1 entries; malformed rows,
        as read from JSON, raise ArgumentError naming the field path."""
        if not isinstance(rows, (list, tuple)):
            raise ArgumentError(f"expected a list of rows, not {type(rows).__name__}")
        n = len(rows)
        for i, row in enumerate(rows):
            if not isinstance(row, (list, tuple)) or len(row) != n:
                raise ArgumentError(f"[{i}]: expected a row of {n} entries, "
                                    "the matrix must be square")
            for j, v in enumerate(row):
                if type(v) is not int or v not in (0, 1):
                    raise ArgumentError(f"[{i}][{j}]: expected 0 or 1, not {v!r}")
        return cls(n, tuple(sum(v << j for j, v in enumerate(row)) for row in rows))

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def column(self, j: int) -> int:
        """Column j packed into an int (bit i = entry (i, j))."""
        return sum(((r >> j) & 1) << i for i, r in enumerate(self.rows))

    def mul(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        out = []
        for r in self.rows:
            acc = 0
            j = 0
            while r:
                if r & 1:
                    acc ^= other.rows[j]
                r >>= 1
                j += 1
            out.append(acc)
        return Gf2Matrix(self.n, tuple(out))

    def apply(self, x: int) -> int:
        """Matrix-vector product on a bit-packed column vector."""
        y = 0
        for i, r in enumerate(self.rows):
            y |= (bin(r & x).count("1") & 1) << i
        return y

    def transpose(self) -> "Gf2Matrix":
        return Gf2Matrix(self.n, tuple(self.column(j) for j in range(self.n)))

    def is_invertible(self) -> bool:
        rows = list(self.rows)
        for k in range(self.n):
            pivot = next((i for i in range(k, self.n) if (rows[i] >> k) & 1), None)
            if pivot is None:
                return False
            rows[k], rows[pivot] = rows[pivot], rows[k]
            for i in range(self.n):
                if i != k and (rows[i] >> k) & 1:
                    rows[i] ^= rows[k]
        return True

    def is_unit_upper(self) -> bool:
        return all(self.entry(i, i) == 1 and self.rows[i] & ((1 << i) - 1) == 0
                   for i in range(self.n))

    def is_unit_lower(self) -> bool:
        return all(self.entry(i, i) == 1 and self.rows[i] >> (i + 1) == 0
                   for i in range(self.n))


def permutation_matrix(perm: Sequence[int]) -> Gf2Matrix:
    """Matrix P with P[i, perm[i]] = 1, i.e. (Px)_i = x_perm[i]."""
    n = len(perm)
    return Gf2Matrix(n, tuple(1 << perm[i] for i in range(n)))


@dataclass(frozen=True)
class FanLayer:
    """One shared-control CNOT set: control -> every target."""

    control: int
    targets: frozenset[int]

    def __post_init__(self):
        if self.control in self.targets:
            raise ValueError("fan control cannot be one of its targets")
        if not self.targets:
            raise ValueError("fan layer needs at least one target")
        object.__setattr__(self, "targets", frozenset(self.targets))

    def cnots(self) -> list[tuple[int, int]]:
        return [(self.control, t) for t in sorted(self.targets)]


def plu_decompose(m: Gf2Matrix) -> tuple[tuple[int, ...], Gf2Matrix, Gf2Matrix]:
    """Factor m = P . L . U over GF(2).

    P is returned as the permutation p with matrix P[i, p[i]] = 1; L and U
    are unit-diagonal lower/upper triangular.  Pivoting always picks the
    lowest-index available row, so the output is deterministic.  Raises
    ValueError for singular input.
    """
    n = m.n
    u = list(m.rows)
    lrows = [0] * n
    sigma = list(range(n))  # row i of u currently holds source row sigma[i]
    for k in range(n):
        pivot = next((i for i in range(k, n) if (u[i] >> k) & 1), None)
        if pivot is None:
            raise ArgumentError("matrix is singular over GF(2)")
        if pivot != k:
            u[k], u[pivot] = u[pivot], u[k]
            lrows[k], lrows[pivot] = lrows[pivot], lrows[k]
            sigma[k], sigma[pivot] = sigma[pivot], sigma[k]
        for i in range(k + 1, n):
            if (u[i] >> k) & 1:
                u[i] ^= u[k]
                lrows[i] |= 1 << k
    lmat = Gf2Matrix(n, tuple(lrows[i] | (1 << i) for i in range(n)))
    umat = Gf2Matrix(n, tuple(u))
    # sigma satisfies (S m) = L U with S[i, sigma[i]] = 1; hence m = P L U
    # for P = S^-1, i.e. P[sigma[i], i] = 1.
    p = [0] * n
    for i in range(n):
        p[sigma[i]] = i
    return tuple(p), lmat, umat


def triangular_to_fans(t: Gf2Matrix) -> list[FanLayer]:
    """Read a unit-triangular matrix off as at most n-1 fan-out layers.

    Layer for column k has control k and targets the rows carrying a 1 in
    column k off the diagonal; empty columns are skipped.  Layers are
    returned in circuit order: applying their CNOT sets in sequence
    (linear_simulate) reproduces t exactly.
    """
    n = t.n
    if t.is_unit_upper():
        order = range(1, n)
    elif t.is_unit_lower():
        order = range(n - 2, -1, -1)
    else:
        raise ValueError("matrix is not unit triangular")
    layers = []
    for k in order:
        col = t.column(k) & ~(1 << k)
        if col:
            layers.append(FanLayer(k, frozenset(i for i in range(n) if (col >> i) & 1)))
    return layers


def linear_simulate(items: Iterable[FanLayer | tuple[int, int]], n: int) -> Gf2Matrix:
    """GF(2) transfer matrix of a CNOT circuit (fan layers or (c, t) pairs)."""
    rows = [1 << i for i in range(n)]
    for item in items:
        pairs = item.cnots() if isinstance(item, FanLayer) else [item]
        for c, t in pairs:
            if c == t or not (0 <= c < n and 0 <= t < n):
                raise ValueError(f"bad CNOT ({c}, {t}) on {n} wires")
            rows[t] ^= rows[c]
    return Gf2Matrix(n, tuple(rows))


def synthesize_linear(m: Gf2Matrix) -> tuple[list[FanLayer], tuple[int, ...]]:
    """Fan-layer circuit for an invertible matrix, plus the residual relabeling.

    Returns (layers, perm) such that permutation_matrix(perm) composed after
    the simulated layers equals m.  The permutation costs no entangling
    pulses (wire relabeling).
    """
    p, lmat, umat = plu_decompose(m)
    return triangular_to_fans(umat) + triangular_to_fans(lmat), p


def fan_gms_cost(layers: Iterable[FanLayer]) -> int:
    """Pulse count of a fan-layer list: 2 per real fan, 1 per bare CNOT."""
    return sum(2 if len(layer.targets) >= 2 else 1 for layer in layers)


def gms_count_linear(m: Gf2Matrix) -> int:
    """Entangling pulses to synthesize an invertible linear transfer matrix.

    Triangular factors cost at most 2n-3 each (the first nonempty column is
    always a bare CNOT), so arbitrary invertible input stays within
    2(2n-3); the permutation stage is free relabeling.
    """
    layers, _ = synthesize_linear(m)
    return fan_gms_cost(layers)


def stabilizer_gms_bound(n: int) -> tuple[int, dict[str, int]]:
    """Pulse budget for an n-qubit stabilizer unitary via its 9-stage
    layered form: two triangular CNOT stages and two general ones.

    Pure count arithmetic (12n - 18 total); this does not synthesize a
    tableau.
    """
    if n < 2:
        raise ArgumentError("need n >= 2")
    triangular = 2 * n - 3
    general = 2 * triangular
    breakdown = {
        "cnot_stage_triangular_1": triangular,
        "cnot_stage_triangular_2": triangular,
        "cnot_stage_general_1": general,
        "cnot_stage_general_2": general,
    }
    total = sum(breakdown.values())
    assert total == 12 * n - 18
    return total, breakdown
