"""Statevector update kernels: one numpy engine on reshape views.

Five primitives cover the whole gate set; each mutates a C-contiguous
(dim, batch) complex128 array in place so a unitary build is just the
statevector path with batch = dim.  Bit masks address qubits by basis-index
significance: qubit 0 of an n-qubit register is the most significant bit,
mask ``1 << (n - 1)``.

``sim`` applies a GMS pulse as Hadamards, one ``apply_scale`` with a phase
table broadcast over a reshaped view of the state, and Hadamards again, and
it fuses runs of single-qubit gates into one ``apply_1q``.  ``apply_xx``
serves the two-qubit XX gate only.  ``sim`` looks every kernel up on
``BACKEND`` at each call, so the kernels can be wrapped from outside.
"""

from __future__ import annotations


class NumpyBackend:
    @staticmethod
    def apply_1q(st, m00, m01, m10, m11, mask):
        hi = st.shape[0] // (2 * mask)
        v = st.reshape(hi, 2, -1)
        a, b = v[:, 0], v[:, 1]
        if m01 == 0 and m10 == 0:
            a *= m00
            b *= m11
            return
        t = m10 * a  # the only half-size temporary besides m01 * b
        a *= m00
        a += m01 * b
        b *= m11
        b += t

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
