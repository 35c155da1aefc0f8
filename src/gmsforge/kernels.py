"""Statevector update kernels: one numpy engine on reshape views.

Each kernel mutates a C-contiguous (dim, batch) complex128 array in place,
so a unitary build is just the statevector path with batch = dim.  Bit
masks address qubits by basis-index significance: qubit 0 of an n-qubit
register is the most significant bit, mask ``1 << (n - 1)``.

The engine runs three of them.  ``sim`` compiles every gate but CNOT into
single-qubit frames and diagonal phase tables: runs of single-qubit gates
are fused per wire, and the matrices of a window of adjacent wires are
applied as one ``apply_block``; a GMS pulse, XX, CP and every diagonal
matrix left pending are folded into a table, and tables with no other pass
between them are one ``apply_scale`` with the table broadcast over a
reshaped view of the state; a CNOT is one ``apply_cnot``.  ``sim`` does
this fusing, folding and tabling once per circuit and keeps the resulting
passes with it, so the kernels are all a repeated run of a circuit
executes.  ``apply_block`` multiplies a 2^g x 2^g matrix into the
(2^top, 2^g, rest) view chunk by chunk through one scratch buffer of at
most ``CHUNK`` entries, so the state never gets a second full-size copy.
Each matrix product has at most ``COLS`` columns, under the size at which
OpenBLAS runs a product on several threads: with another process busy on
the second of two cores, a threaded 16 x 16 x 256 product took 8 ms
against 33 us on one thread.

``apply_1q``, ``apply_xx`` and ``apply_cp`` apply one gate each and no
compiled circuit calls them.  They stay as the independent oracle the
tests check the engine against (every gate on its own, a GMS as one XX
per pair), and because the benchmark's trace wraps each of them by name.
``sim`` looks every kernel up on ``BACKEND`` at each call, so the kernels
can be wrapped from outside.
"""

from __future__ import annotations

import math

import numpy as np

CHUNK = 1 << 14
"""Entries of the one scratch buffer ``apply_block`` writes through."""
COLS = 128
"""Most columns of each matrix product in ``apply_block`` (16 x 16 x 128
multiply-adds; OpenBLAS threaded products from 16 x 16 x 256 on)."""


class NumpyBackend:
    @staticmethod
    def apply_1q(st, m00, m01, m10, m11, mask):
        hi = st.shape[0] // (2 * mask)
        v = st.reshape(hi, 2, -1)
        a, b = v[:, 0], v[:, 1]
        t = m10 * a  # the only half-size temporary besides m01 * b
        a *= m00
        a += m01 * b
        b *= m11
        b += t

    @staticmethod
    def apply_block(st, blk, top):
        # the window's wires are the axis of length 2^g below ``top`` wires;
        # the products run as stacks of COLS-column matrices, CHUNK entries
        # per call, each written back through one scratch buffer
        size = blk.shape[0]
        v = st.reshape(1 << top, size, -1)
        hi, rest = v.shape[0], v.shape[2]
        if rest == 1:  # bottom window of one state: rows of 2^g times blk^T
            cols = min(hi, COLS)
            stack = v.reshape(1, hi // cols, cols, size)
        else:  # a batch that is not a power of two takes narrower products
            cols = rest if rest <= COLS else math.gcd(rest, COLS)
            stack = v.reshape(hi, size, rest // cols, cols).transpose(0, 2, 1, 3)
        a, b = stack.shape[:2]
        per = CHUNK // (size * cols)  # matrices per call
        s = min(b, per)
        t = min(a, max(1, per // b))
        tmp = np.empty((t, s) + stack.shape[2:], dtype=st.dtype)
        for i in range(0, a, t):
            for j in range(0, b, s):
                x = stack[i:i + t, j:j + s]
                out = tmp[:len(x), :x.shape[1]]  # the last slices may be short
                if rest == 1:
                    np.matmul(x, blk.T, out=out)
                else:
                    np.matmul(blk, x, out=out)
                x[...] = out

    @staticmethod
    def apply_xx(st, cos_half, sin_half, m1, m2):
        # psi'[i] = cos*psi[i] - i*sin*psi[i ^ (m1|m2)]
        if m1 < m2:
            m1, m2 = m2, m1
        hi = st.shape[0] // (2 * m1)
        mid = m1 // (2 * m2)
        v = st.reshape(hi, 2, mid, 2, -1)
        flipped = v[:, ::-1, :, ::-1].copy()
        v *= cos_half
        v += (-1j * sin_half) * flipped

    @staticmethod
    def apply_cnot(st, cmask, tmask):
        hi = st.shape[0] // (2 * max(cmask, tmask))
        mid = max(cmask, tmask) // (2 * min(cmask, tmask))
        v = st.reshape(hi, 2, mid, 2, -1)
        if cmask > tmask:
            v[:, 1] = v[:, 1, :, ::-1].copy()
        else:
            v[:, :, :, 1] = v[:, ::-1, :, 1].copy()

    @staticmethod
    def apply_cp(st, m1, m2, phase):
        if m1 < m2:
            m1, m2 = m2, m1
        hi = st.shape[0] // (2 * m1)
        mid = m1 // (2 * m2)
        v = st.reshape(hi, 2, mid, 2, -1)
        v[:, 1, :, 1] *= phase

    @staticmethod
    def apply_scale(st, phase):
        # ``phase`` is a scalar or an array broadcast against a view of st
        st *= phase


BACKEND = NumpyBackend
