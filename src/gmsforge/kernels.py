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
(2^top, 2^g, rest) view in one of three forms.  With at most ``ROW``
entries per row, which is one state's bottom wires, each row of 2^g x rest
complex entries is read as floats and multiplied by the real form of the
block (``real_form``): one real product, which BLAS runs faster than the
complex product of the same multiply-adds.  Otherwise a real block (the
engine splits the diagonal phases off the pending matrices where its
tables allow) multiplies the float view, with half the multiply-adds of a
complex product, and a complex block the complex view.  Every form runs
chunk by chunk through one scratch buffer of ``CHUNK`` complex entries, so
the state never gets a second full-size copy, and each matrix product
has at most ``MADDS`` multiply-adds, under the size at which OpenBLAS runs
a product on several threads: with another process busy on the second of
two cores, a threaded 16 x 16 x 256 complex product took 8 ms against
33 us on one thread.

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
"""Complex entries of the one scratch buffer ``apply_block`` writes
through (256 KiB), and the most entries a padded phase table holds."""
ROW = 16
"""Most complex entries per row that ``apply_block`` multiplies in rows
form: a 32 x 32 real form, the cost of a full window's block on one
state's bottom wires."""
MADDS = 1 << 17
"""Most real multiply-adds of each matrix product in ``apply_block``: a
complex 16 x 16 x 128 product, a real 16 x 16 x 512 one or 128 rows of 32
floats times a 32 x 32 real form.  OpenBLAS threaded a complex 16 x 16 x
256 product and a real 4096 x 16 x 16 one."""


def real_form(blk: np.ndarray) -> np.ndarray:
    """The 2S x 2S float64 matrix that maps a row of S complex entries,
    read as 2S floats (real, imaginary, ...), to the row times ``blk.T``."""
    size = len(blk)
    form = np.empty((size, 2, size), dtype=np.complex128)
    form[:, 0] = blk.T
    np.multiply(blk.T, 1j, out=form[:, 1])
    return form.view(np.float64).reshape(2 * size, 2 * size)


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
        # the block's wires are the axis of length 2^g below ``top`` wires,
        # rest the entries below them.  With at most ROW entries per row
        # (one state's bottom wires), rows of 2^g x rest complex entries,
        # read as floats, are multiplied by the real form of blk (x) I_rest.
        # Otherwise a real blk acts alike on real and imaginary parts, so it
        # multiplies the float view; a complex one the complex view.  The
        # products run as stacks of at most MADDS multiply-adds, CHUNK
        # complex entries per call, each written back through one scratch
        # buffer.
        size = blk.shape[0]
        v = st.reshape(1 << top, size, -1)
        hi, rest = v.shape[0], v.shape[2]
        rows_form = size * rest <= ROW
        if rows_form:
            mat = real_form(blk if rest == 1 else np.kron(blk, np.eye(rest)))
            width = len(mat)
            most = min(MADDS // width ** 2, 2 * CHUNK // width)
            rows = min(hi, 1 << (most.bit_length() - 1))
            stack = v.view(np.float64).reshape(1, hi // rows, rows, width)
        else:
            mat, madds = blk, MADDS // 4
            if blk.dtype.kind == "f":
                v, rest, madds = v.view(np.float64), 2 * rest, MADDS
            most = min(madds // size, CHUNK * 16 // v.itemsize) // size
            # a batch that is not a power of two takes narrower products
            cols = rest if rest <= most else math.gcd(rest, most)
            stack = v.reshape(hi, size, rest // cols, cols).transpose(0, 2, 1, 3)
        a, b = stack.shape[:2]
        per = CHUNK * 16 // (stack.itemsize * stack[0, 0].size)  # per call
        s = min(b, per)
        t = min(a, max(1, per // b))
        tmp = np.empty((t, s) + stack.shape[2:], dtype=stack.dtype)
        for i in range(0, a, t):
            for j in range(0, b, s):
                x = stack[i:i + t, j:j + s]
                out = tmp[:len(x), :x.shape[1]]  # the last slices may be short
                if rows_form:
                    np.matmul(x, mat, out=out)
                else:
                    np.matmul(mat, x, out=out)
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
