"""The dense momentum matrix of the circle Hamiltonian, the reference the
tests hold the structural periodic spectrum of solve_periodic_s1 against."""

import numpy as np
import scipy.linalg

from ptsphere.spectral import _require_regular_circle


def circle_potential_phi(a, b, k1, k2, phi):
    """V_{a,b} at the angles phi of s = (cos phi, sin phi)."""
    c2, s2 = np.cos(2 * phi), np.sin(2 * phi)
    num = 2 * k1 * k2 * (a * c2 - 1j * b * s2) - k1 * k1 * (a * a - b * b) - k2 * k2
    den = (b * c2 - 1j * a * s2) ** 2
    return num / den


def fourier_matrix(a, b, k1, k2, N: int):
    """Momentum-basis matrix of -d^2/dphi^2 + V_{a,b} with modes ordered
    descending from +N/2 to -N/2.

    For a = b the potential is (2 k1 k2 / a) e^{2i phi} - (k2 / a)^2 e^{4i phi},
    with only the e^{2i phi} and e^{4i phi} modes, so the matrix is exactly
    upper triangular in this ordering; the two nonzero coefficients are then
    filled in analytically rather than via the FFT.
    """
    a, b = complex(a), complex(b)
    k1, k2 = complex(k1), complex(k2)
    _require_regular_circle(a, b)
    M = N // 2
    modes = np.arange(M, -M - 1, -1)
    dim = 2 * M + 1
    # H[i, j] = c_{m_i - m_j} = c_{j - i}: a Toeplitz matrix whose first
    # column holds c_0, c_{-1}, ... and whose first row holds c_0, c_1, ...
    if a == b:
        row = np.zeros(dim + 4, dtype=complex)  # room for c_4 when dim < 5
        row[2] = 2 * k1 * k2 / a
        row[4] = -k2 * k2 / (a * a)
        H = scipy.linalg.toeplitz(np.zeros(dim, dtype=complex), row[:dim])
    else:
        Ns = 8 * M
        phis = 2 * np.pi * np.arange(Ns) / Ns
        vals = circle_potential_phi(a, b, k1, k2, phis)
        fc = np.fft.fft(vals) / Ns
        d = np.arange(dim)
        H = scipy.linalg.toeplitz(fc[-d % Ns], fc[d])
    np.fill_diagonal(H, modes.astype(float) ** 2)
    return H, modes
