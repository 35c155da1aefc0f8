"""Gate-level IR for circuits over global Molmer-Sorensen (GMS) pulses.

Gate set: addressable single-qubit rotations RX/RY/RZ, Hadamard, CNOT,
controlled-phase, the two-qubit Ising coupling XX, and a GMS gate acting on
an arbitrary subset of qubits with a configurable coupling profile.  An
explicit global-phase gate keeps circuit identities exact rather than
"up to a phase".

Conventions fixed here and relied on everywhere else:

* Angles are radians in double precision.  Rotations are 4*pi periodic at
  the unitary level (2*pi up to global phase); no normalization is applied.
* RX(t) = exp(-i*sigma_x*t/2); RY and RZ analogous.
* XX(chi) = exp(-i*(sigma_x (x) sigma_x)*chi/2).  A GMS over a qubit set S
  applies XX to every pair of S, pair (i, j) at angle profile.angle(i, j).
* Circuits are immutable values; every operation returns a new circuit.
  Validation is one pass per value: a gate, a pair table or a circuit made
  by its public constructor checks itself once, when it is made, and a
  circuit takes one max over all wires against its register.  Builders,
  ``deserialize`` and every public method take that path.  A value the
  package derives from checked values, by a map that keeps every check
  true, is built from its fields by ``_derived`` instead.  The call sites,
  all in ``constructions``, and the check each keeps: ``embed`` checks its
  wire map once, distinct and non-negative on the wires its gates use;
  ``_grow`` and ``_echo_collapse`` build canonical tables and check every
  coupling they compute finite; ``_rz_match`` checks the summed angle
  of the RZ it merges finite; ``toffoli_n``, ``gms_shrink`` and
  ``_stack_pass`` emit circuits on their input's register with no new
  wire.
* Each rule of a gate or a profile is written once, in its constructor:
  the gate kind and the presence of an angle or a profile included.
  ``deserialize`` checks only JSON types (exact integers, numbers, lists,
  objects, row widths), a positive ``n_qubits`` and a profile's kind.  A
  ``Gate`` refusal about one field raises ``FieldError`` naming it, which
  ``deserialize`` reports at that field (``gates[k].theta``).
* A GMS keeps its wires ascending, however they were given, so one pulse
  has one form.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Iterable, Sequence, Union


class SchemaError(ValueError):
    """Raised on malformed circuit JSON; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class FieldError(ValueError):
    """Raised by ``Gate`` on a refusal about one of its fields, which
    ``field`` names (``kind``, ``theta`` or ``profile``); ``deserialize``
    adds it to the gate's path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


class ArgumentError(ValueError):
    """Raised when a builder's arguments are out of range: a usage error
    when they come from the command line, unlike other ValueErrors."""


class GuardError(RuntimeError):
    """Raised by ``guard`` when a request is above a resource limit."""


def guard(name: str, asked: int, limit: int, unit: str, note: str = "") -> None:
    """Refuse a request of ``asked`` units above ``limit``, in one message:
    ``<name> guard: <asked> <unit> asked, limit is <limit> <unit>``, then
    ``note`` in parentheses."""
    if asked > limit:
        raise GuardError(f"{name} guard: {asked} {unit} asked, limit is {limit} {unit}"
                         + (f" ({note})" if note else ""))


def check_register(n: int, least: int = 1, **wires: int) -> None:
    """Refuse a register of fewer than ``least`` qubits, and wire parameters
    outside it or on one wire, naming their flags and its width."""
    if n < least:
        raise ArgumentError(f"need n >= {least}")
    for flag, wire in wires.items():
        if not 0 <= wire < n:
            raise ArgumentError(f"--{flag} must be a wire of the {n}-qubit "
                                f"register (0..{n - 1}), not {wire}")
    if len(set(wires.values())) < len(wires):
        raise ArgumentError(f"--{' and --'.join(wires)} must be different wires")


def _derived(cls, **fields):
    """A frozen ``Gate``, ``PerPair`` or ``Circuit`` built from every one
    of its fields, by name, without ``__post_init__``: only for a value
    derived from checked values by a map that keeps every check true (the
    module docstring names the call sites)."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _nonfinite(chis) -> ArgumentError:
    """The refusal of the first coupling angle of ``chis`` that is not
    finite, made only once a check has failed."""
    bad = next(chi for chi in chis if not math.isfinite(chi))
    return ArgumentError(f"coupling angles must be finite, not {bad!r}")


# ---------------------------------------------------------------------------
# Coupling profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Uniform:
    """Every pair of the participating set couples at the same angle."""

    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise _nonfinite([self.theta])

    def angle(self, i: int, j: int) -> float:
        return self.theta


def _canonical(table) -> bool:
    """Whether a coupling table is already the one ``PerPair`` would store
    and passes its checks: a tuple of (i, j, chi) tuples, i < j, keys
    strictly ascending, chi a finite float.  One pass; any other table
    takes the sorting path, which raises what it always raised."""
    if type(table) is not tuple:
        return False
    pi = pj = -1  # the previous key; a table keyed below it takes the sorting path
    try:
        for row in table:
            if type(row) is not tuple or len(row) != 3:
                return False
            i, j, chi = row
            # chi - chi is 0 for finite chi only
            if not (type(chi) is float and i < j and (i > pi or i == pi and j > pj)
                    and chi - chi == 0.0):
                return False
            pi, pj = i, j
    except TypeError:
        return False
    return True


@dataclass(frozen=True)
class PerPair:
    """Explicit symmetric pair table; must cover every pair of the set."""

    table: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if _canonical(self.table):  # kept as it is
            return
        canon = sorted([(i, j, float(chi)) if i < j else (j, i, float(chi))
                        for i, j, chi in self.table])
        keys = [(i, j) for i, j, _ in canon]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate pair in coupling table")
        chis = [chi for _, _, chi in canon]
        if not all(map(math.isfinite, chis)):
            raise _nonfinite(chis)
        object.__setattr__(self, "table", tuple(canon))

    def angle(self, i: int, j: int) -> float:
        # binary search of the sorted table: (a, b) sorts just before (a, b, chi)
        key = (min(i, j), max(i, j))
        k = bisect.bisect_left(self.table, key)
        if k < len(self.table) and self.table[k][:2] == key:
            return self.table[k][2]
        raise ValueError(f"pair {key} not in coupling table")


@dataclass(frozen=True)
class Exponential:
    """Coupling falling off exponentially in wire distance: pi / 2**|i-j|."""

    def angle(self, i: int, j: int) -> float:
        return math.pi / 2 ** abs(i - j)


@dataclass(frozen=True)
class PowerLawSum:
    """Sum of power-law drop-offs: chi_ij = sum_t pi / (b_t * (|i-j|+offset)**p_t)."""

    terms: tuple[tuple[float, float], ...]
    offset: int = 0

    def __post_init__(self):
        if self.offset not in (0, 1):
            raise ArgumentError("offset must be 0 or 1")
        terms = tuple((float(b), float(p)) for b, p in self.terms)
        if not all(math.isfinite(x) for term in terms for x in term):
            raise ArgumentError("power-law terms must be finite")
        if any(b == 0.0 for b, _ in terms):
            raise ArgumentError("power-law coefficient b must be nonzero")
        object.__setattr__(self, "terms", terms)

    def angle(self, i: int, j: int) -> float:
        d = abs(i - j) + self.offset
        return sum(math.pi / (b * d**p) for b, p in self.terms)


CouplingProfile = Union[Uniform, PerPair, Exponential, PowerLawSum]


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

GATE_KINDS = ("H", "RX", "RY", "RZ", "CNOT", "CP", "XX", "GMS", "PHASE")
_PARAMETRIC = ("RX", "RY", "RZ", "CP", "XX", "PHASE")
# kind -> (its number of wires, None for any; whether it takes an angle)
_RULES = {kind: ({"CNOT": 2, "CP": 2, "XX": 2, "GMS": None, "PHASE": 0}.get(kind, 1),
                 kind in _PARAMETRIC) for kind in GATE_KINDS}


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    theta: float | None = None
    profile: CouplingProfile | None = None

    def __post_init__(self):
        kind, qubits, theta = self.kind, self.qubits, self.theta
        if kind not in GATE_KINDS:
            raise FieldError("kind", f"unknown gate kind {kind!r}")
        arity, angled = _RULES[kind]
        width = len(qubits)
        if width > 1 and len(set(qubits)) != width:
            raise ValueError("gate qubits must be distinct")
        if width and min(qubits) < 0:
            raise ValueError("negative qubit index")
        if arity is not None and width != arity:
            raise ValueError(f"{kind} takes {arity} qubit(s), got {width}")
        if theta is None:
            if angled:
                raise FieldError("theta", f"{kind} requires an angle")
        elif not math.isfinite(theta):
            raise FieldError("theta", "angle must be finite")
        elif not angled:
            raise FieldError("theta", f"{kind} takes no angle")
        if kind != "GMS":
            if self.profile is not None:
                raise FieldError("profile", f"{kind} takes no profile")
            return
        if width < 2:
            raise ValueError("GMS needs at least 2 participating qubits")
        if self.profile is None:
            raise FieldError("profile", "GMS requires a coupling profile")
        # one pulse, one form: its wires ascending, however they were given
        object.__setattr__(self, "qubits", qubits := tuple(sorted(qubits)))
        # a table's pairs are sorted and distinct: compare them as a list
        if (isinstance(self.profile, PerPair)
                and [(i, j) for i, j, _ in self.profile.table] != list(combinations(qubits, 2))):
            raise ValueError("per-pair table must cover exactly the participating pairs")

    def pair_angles(self) -> Sequence[tuple[int, int, float]]:
        """XX decomposition of a GMS gate: (i, j, chi) for every pair, i < j;
        a per-pair table, which validation made list exactly those, as it is."""
        if self.kind != "GMS":
            raise ValueError("pair_angles is defined for GMS gates only")
        if isinstance(self.profile, PerPair):
            return self.profile.table
        return [(i, j, self.profile.angle(i, j)) for i, j in combinations(self.qubits, 2)]

    def inverse(self) -> "Gate":
        if self.kind in ("H", "CNOT"):
            return self
        if self.kind in _PARAMETRIC:
            return Gate(self.kind, self.qubits, -self.theta)
        # GMS: negate every coupling
        if isinstance(self.profile, Uniform):
            return Gate("GMS", self.qubits, profile=Uniform(-self.profile.theta))
        return Gate("GMS", self.qubits,
                    profile=PerPair(tuple((i, j, -chi) for i, j, chi in self.pair_angles())))


def h(q: int) -> Gate:
    return Gate("H", (q,))


def rx(q: int, theta: float) -> Gate:
    return Gate("RX", (q,), theta)


def ry(q: int, theta: float) -> Gate:
    return Gate("RY", (q,), theta)


def rz(q: int, theta: float) -> Gate:
    return Gate("RZ", (q,), theta)


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def cp(q1: int, q2: int, theta: float) -> Gate:
    """Diagonal phase exp(i*theta) on the |11> component of the pair."""
    return Gate("CP", (q1, q2), theta)


def xx(q1: int, q2: int, chi: float) -> Gate:
    return Gate("XX", (q1, q2), chi)


def gms(qubits: Iterable[int], profile: CouplingProfile) -> Gate:
    return Gate("GMS", tuple(qubits), profile=profile)


def global_phase(theta: float) -> Gate:
    """Scalar factor exp(i*theta); bookkeeping gate acting on no qubits."""
    return Gate("PHASE", (), theta)


# ---------------------------------------------------------------------------
# Circuits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Circuit:
    """Ordered gate sequence over an indexed register.

    ``ancillas`` marks qubits expected to enter and leave in |0>; the
    remaining qubits are the data register.  ``sim`` keeps the circuit's
    compiled plan on it as ``_plan``, which is not a field: equality,
    hashing and serialization ignore it.
    """

    n_qubits: int
    gates: tuple[Gate, ...] = ()
    ancillas: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n_qubits <= 0:
            raise ValueError("circuit needs at least one qubit")
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "ancillas", frozenset(self.ancillas))
        if any(a < 0 or a >= self.n_qubits for a in self.ancillas):
            raise ValueError("ancilla index out of range")
        # one max over every wire; the walk only names the first bad gate
        if max(chain.from_iterable(g.qubits for g in self.gates), default=0) >= self.n_qubits:
            bad = next(g for g in self.gates if max(g.qubits, default=0) >= self.n_qubits)
            raise ValueError(
                f"gate {bad.kind} on {bad.qubits} exceeds register of {self.n_qubits}")

    @property
    def data_qubits(self) -> tuple[int, ...]:
        return tuple(q for q in range(self.n_qubits) if q not in self.ancillas)

    def append(self, gate: Gate) -> "Circuit":
        return Circuit(self.n_qubits, self.gates + (gate,), self.ancillas)

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        return Circuit(self.n_qubits, self.gates + tuple(gates), self.ancillas)

    def inverse(self) -> "Circuit":
        return Circuit(self.n_qubits,
                       tuple(g.inverse() for g in reversed(self.gates)),
                       self.ancillas)

    def cost(self) -> "CostReport":
        gms_by_size: dict[int, int] = {}
        local = single = 0
        for g in self.gates:
            if g.kind == "GMS":
                k = len(g.qubits)
                gms_by_size[k] = gms_by_size.get(k, 0) + 1
            elif g.kind in ("XX", "CNOT", "CP"):
                local += 1
            elif g.kind != "PHASE":
                single += 1
        return CostReport(
            gms_pulses=sum(gms_by_size.values()),
            gms_by_size=dict(sorted(gms_by_size.items())),
            local_entangling=local,
            single_qubit=single,
            qubits=self.n_qubits,
            ancillas=len(self.ancillas),
        )


@dataclass(frozen=True)
class CostReport:
    """Entangling-pulse tally. Global-phase bookkeeping gates are not counted."""

    gms_pulses: int
    gms_by_size: dict[int, int]
    local_entangling: int
    single_qubit: int
    qubits: int
    ancillas: int

    @property
    def entangling(self) -> int:
        return self.gms_pulses + self.local_entangling

    def as_dict(self) -> dict:
        return {
            "gms_pulses": self.gms_pulses,
            "gms_by_size": {str(k): v for k, v in self.gms_by_size.items()},
            "local_entangling": self.local_entangling,
            "single_qubit": self.single_qubit,
            "qubits": self.qubits,
            "ancillas": self.ancillas,
        }


def empty(n_qubits: int, ancillas: Iterable[int] = ()) -> Circuit:
    return Circuit(n_qubits, (), frozenset(ancillas))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------
#
# {"n_qubits": int, "ancillas": [int], "gates": [
#     {"kind": "H|RX|RY|RZ|CNOT|CP|XX|GMS|PHASE", "qubits": [int],
#      "theta": float?, "profile": {...}?}]}
#
# Profiles: {"kind": "uniform", "theta": f} | {"kind": "per_pair",
# "table": [[i, j, chi], ...]} | {"kind": "exponential"} |
# {"kind": "power_law", "terms": [[b, p], ...], "offset": 0|1}.
# Floats round-trip exactly (json uses repr).

def _profile_to_obj(profile: CouplingProfile) -> dict:
    if isinstance(profile, Uniform):
        return {"kind": "uniform", "theta": profile.theta}
    if isinstance(profile, PerPair):
        return {"kind": "per_pair", "table": [[i, j, chi] for i, j, chi in profile.table]}
    if isinstance(profile, Exponential):
        return {"kind": "exponential"}
    if isinstance(profile, PowerLawSum):
        return {"kind": "power_law", "terms": [[b, p] for b, p in profile.terms],
                "offset": profile.offset}
    raise TypeError(f"unknown profile {profile!r}")


def _profile_from_obj(obj, path: str) -> CouplingProfile:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected a profile object")
    kind = obj.get("kind")
    try:
        if kind == "uniform":
            return Uniform(float(_typed(obj.get("theta"), _NUMBER, f"{path}.theta")))
        if kind == "per_pair":
            return PerPair(_rows(obj, "table", path, (_INT, _INT, _NUMBER)))
        if kind == "exponential":
            return Exponential()
        if kind == "power_law":
            return PowerLawSum(_rows(obj, "terms", path, (_NUMBER, _NUMBER)),
                               _typed(obj.get("offset", 0), _INT, f"{path}.offset"))
    except SchemaError:
        raise
    except (TypeError, ValueError) as exc:
        raise SchemaError(path, str(exc)) from exc
    raise SchemaError(f"{path}.kind", f"unknown profile kind {kind!r}")


# Exact types: json reads true/false as bool, which isinstance takes for int.
_INT, _NUMBER = (int,), (int, float)
_EXPECTED = {_INT: "expected an integer", _NUMBER: "expected a number"}


def _typed(val, types: tuple, path: str):
    if type(val) not in types:
        raise SchemaError(path, _EXPECTED[types])
    return val


def _integers(val, path: str) -> tuple[int, ...]:
    if not isinstance(val, list):
        raise SchemaError(path, "expected a list of integers")
    for k, v in enumerate(val):
        if type(v) is not int:
            raise SchemaError(f"{path}[{k}]", _EXPECTED[_INT])
    return tuple(val)


def _rows(obj: dict, key: str, path: str, cells: tuple) -> tuple[tuple, ...]:
    """obj[key] as a list of fixed-width rows, cell c of a type in cells[c]."""
    rows, path = obj.get(key), f"{path}.{key}"
    if not (isinstance(rows, list)
            and all(isinstance(r, list) and len(r) == len(cells) for r in rows)):
        raise SchemaError(path, f"expected a list of rows of {len(cells)}")
    for k, row in enumerate(rows):
        for c, (types, v) in enumerate(zip(cells, row)):
            if type(v) not in types:
                raise SchemaError(f"{path}[{k}][{c}]", _EXPECTED[types])
    return tuple(map(tuple, rows))


def serialize(circuit: Circuit) -> str:
    gates = []
    for g in circuit.gates:
        entry: dict = {"kind": g.kind, "qubits": list(g.qubits)}
        if g.theta is not None:
            entry["theta"] = g.theta
        if g.profile is not None:
            entry["profile"] = _profile_to_obj(g.profile)
        gates.append(entry)
    doc = {"n_qubits": circuit.n_qubits,
           "ancillas": sorted(circuit.ancillas),
           "gates": gates}
    return json.dumps(doc, indent=2)


def deserialize(text: str) -> Circuit:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"line {exc.lineno}", exc.msg) from exc
    if not isinstance(doc, dict):
        raise SchemaError("$", "top level must be an object")
    n = doc.get("n_qubits")
    if type(n) is not int or n <= 0:
        raise SchemaError("n_qubits", "expected a positive integer")
    anc = _integers(doc.get("ancillas", []), "ancillas")
    raw_gates = doc.get("gates", [])
    if not isinstance(raw_gates, list):
        raise SchemaError("gates", "expected a list")
    gates: list[Gate] = []
    for idx, obj in enumerate(raw_gates):
        path = f"gates[{idx}]"
        if not isinstance(obj, dict):
            raise SchemaError(path, "gate must be an object")
        qubits = _integers(obj.get("qubits", []), f"{path}.qubits")
        theta = profile = None
        if "theta" in obj:
            theta = float(_typed(obj["theta"], _NUMBER, f"{path}.theta"))
        if "profile" in obj:
            profile = _profile_from_obj(obj["profile"], f"{path}.profile")
        # the kind, the presence of an angle or a profile and every other
        # gate rule are Gate's; a refusal about one field names it
        try:
            gates.append(Gate(obj.get("kind"), qubits, theta, profile))
        except FieldError as exc:
            raise SchemaError(f"{path}.{exc.field}", str(exc)) from exc
        except ValueError as exc:
            raise SchemaError(path, str(exc)) from exc
    try:
        return Circuit(n, tuple(gates), frozenset(anc))
    except ValueError as exc:
        raise SchemaError("$", str(exc)) from exc
