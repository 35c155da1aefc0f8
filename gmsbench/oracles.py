"""Expected outputs computed apart from gmsforge, with numpy alone.

Nothing here imports gmsforge: every oracle works on basis indices or uses
numpy.fft, so a fault in the program's circuits, references or kernels
cannot hide in the answer it is checked against.

Index convention (the program's, stated in its README): wire 0 is the most
significant bit of a basis index, so on an n-wire register wire q is bit
n - 1 - q.
"""

from __future__ import annotations

import math

import numpy as np

# The [[15,1,3]] Reed-Muller encoder as its 34 CNOTs (control wire, target
# wire), wires numbered top to bottom as in the encoder drawing, in the
# drawing's order: wire 14 is a target of the first four fans and the
# control of the last, so the order matters.
TDISTILL_CNOTS = (
    [(0, t) for t in (6, 7, 9, 10, 11, 12, 14)]
    + [(1, t) for t in (5, 7, 8, 10, 11, 13, 14)]
    + [(2, t) for t in (4, 7, 8, 9, 12, 13, 14)]
    + [(3, t) for t in (4, 5, 6, 10, 12, 13, 14)]
    + [(14, t) for t in (4, 5, 6, 8, 9, 11)]
)


def _bit(n: int, wire: int) -> int:
    return 1 << (n - 1 - wire)


def permute(state: np.ndarray, dest: np.ndarray) -> np.ndarray:
    """Apply the basis permutation |i> -> |dest[i]>."""
    out = np.empty_like(state)
    out[dest] = state
    return out


def toffoli_dest(n: int) -> np.ndarray:
    """n-wire Toffoli, controls 0..n-2, target n-1 (the lowest bit)."""
    idx = np.arange(1 << n)
    ctrl = ((1 << n) - 1) ^ 1
    return np.where((idx & ctrl) == ctrl, idx ^ 1, idx)


def cnot_set_dest(n: int, cnots) -> np.ndarray:
    """Basis permutation of a CNOT sequence applied in the given order."""
    idx = np.arange(1 << n)
    for c, t in cnots:
        idx = np.where(idx & _bit(n, c), idx ^ _bit(n, t), idx)
    return idx


def tdistill_dest() -> np.ndarray:
    return cnot_set_dest(15, TDISTILL_CNOTS)


def adder_dest(n: int) -> np.ndarray:
    """|a>|b> -> |a>|a+b mod 2^n>; a on wires 0..n-1, b on wires n..2n-1,
    each little-endian (wire j of a register carries weight 2^j)."""
    idx = np.arange(1 << (2 * n))
    a = np.zeros_like(idx)
    b = np.zeros_like(idx)
    for j in range(n):
        a |= ((idx >> (2 * n - 1 - j)) & 1) << j
        b |= ((idx >> (n - 1 - j)) & 1) << j
    s = (a + b) % (1 << n)
    out = idx.copy()
    for j in range(n):
        out &= ~(1 << (n - 1 - j))
        out |= ((s >> j) & 1) << (n - 1 - j)
    return out


def dft_bitreversed(state: np.ndarray) -> np.ndarray:
    """The transform circuits' unitary, U[j, k] = w^(j*rev(k)) / sqrt(N)
    with w = exp(2*pi*i/N): an inverse FFT of the bit-reversed input."""
    dim = state.shape[0]
    n = dim.bit_length() - 1
    rev = np.zeros(dim, dtype=np.int64)
    idx = np.arange(dim)
    for q in range(n):
        rev |= ((idx >> q) & 1) << (n - 1 - q)
    return np.fft.ifft(state[rev], axis=0) * math.sqrt(dim)


def dft_matrix(n: int) -> np.ndarray:
    return dft_bitreversed(np.eye(1 << n, dtype=np.complex128))


def hamming_phase(n: int, theta: float) -> np.ndarray:
    """Diagonal of H-layer, uniform GMS(theta) on all n wires, H-layer.

    H turns each X_i X_j into Z_i Z_j, and with z = +-1 per wire,
    sum_{i<j} z_i z_j = ((n - 2w)^2 - n) / 2 for Hamming weight w."""
    idx = np.arange(1 << n)
    w = np.zeros_like(idx)
    for q in range(n):
        w += (idx >> q) & 1
    return np.exp(-1j * theta / 2 * ((n - 2 * w) ** 2 - n) / 2)


def embed_zero_ancillas(data: np.ndarray, n_ancillas: int) -> np.ndarray:
    """data (x) |0...0> with the ancillas on the highest-numbered wires."""
    out = np.zeros(data.shape[0] << n_ancillas, dtype=np.complex128)
    out[::1 << n_ancillas] = data
    return out


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def phase_deviation(got: np.ndarray, want: np.ndarray) -> float:
    """max |got - lam * want| for the unit-modulus lam read off at want's
    largest entry: the distance from equality up to one global phase."""
    k = int(np.argmax(np.abs(want)))
    lam = got.flat[k] / want.flat[k]
    if abs(lam) == 0.0:
        return float("inf")
    lam /= abs(lam)
    return float(np.max(np.abs(got - lam * want)))
