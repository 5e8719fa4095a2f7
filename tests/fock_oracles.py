"""Test-side forms of the symmetry actions on coefficients.

`displacement_matrix` is the generalized-Laguerre matrix of a magnetic
translation (Cahill and Glauber, Phys. Rev. 177 (1969)), the oracle for the
package's tridiagonal-generator translation, whose columns
`generator_columns` collects; `loop_displacement_matrix` is the
entry-by-entry form the matrix is checked against.  Past size about 1030 the
factorial ratio underflows while the Laguerre value overflows, so both hold
only below that size.  Phase and rotation are the two other symmetries of
the energy; the package itself never applies them.  `wirtinger_gradient`
is the energy kernel's gradient of G_mu at a state, for the gradient checks,
and `zero_padded` re-embeds a state at a larger truncation, which gives a
translation headroom.
"""

import math

import numpy as np
from scipy.special import eval_genlaguerre

from fockmin import fock
from kernel_rows import one_row


def wirtinger_gradient(u, mu):
    """Gradient of G_mu in the convention dG/dRe(a_k) + i dG/dIm(a_k)
    (twice the derivative in conj(a_k))."""
    _, grad = one_row(fock.energy_kernel(u.truncation).value_and_gradient, u.coeffs, mu)
    return grad


def zero_padded(u, truncation):
    """The state u at `truncation` >= u.truncation, its extra modes zero."""
    out = np.zeros(truncation + 1, dtype=complex)
    out[: u.truncation + 1] = u.coeffs
    return fock.FockCoefficients(out)


def apply_phase(u, gamma):
    return fock.FockCoefficients(np.exp(1j * gamma) * u.coeffs)


def apply_rotation(u, theta):
    n = np.arange(u.truncation + 1, dtype=float)
    return fock.FockCoefficients(np.exp(1j * theta * n) * u.coeffs)


def generator_columns(alpha, truncation, count):
    """The first `count` columns of the package's translation by alpha: the
    images of e_0 .. e_{count-1} at `truncation`."""
    images = [
        fock.apply_translation(fock.FockCoefficients(e), alpha).coeffs
        for e in np.eye(count, truncation + 1)
    ]
    return np.array(images).T


def displacement_matrix(alpha, size):
    """Matrix of the magnetic translation by alpha on the first `size` modes.

    The translation u(z) -> u(z+alpha) e^{(zbar*alpha - z*alphabar)/2} acts on
    basis coefficients as the unitary displacement with parameter -conj(alpha);
    entries involve generalized Laguerre polynomials.  Entries are exact matrix
    elements of the infinite operator, so truncation loss shows up only as a
    mass defect of the output.
    """
    # complex, not int: beta**powers would wrap in int64
    beta = -np.conj(complex(alpha))
    x = abs(beta) ** 2
    log_fact = np.zeros(size)
    log_fact[1:] = np.cumsum(np.log(np.arange(1, size)))
    # an entry depends on lo = min(m, n) and d = |m - n| only, up to the
    # phase factor beta^d below the diagonal and (-conj(beta))^d above it
    m, lo = np.tril_indices(size)
    d = m - lo
    magnitude = (
        np.exp(0.5 * (log_fact[lo] - log_fact[m]))
        * math.exp(-0.5 * x)
        * eval_genlaguerre(lo, d, x)
    )
    powers = np.arange(size)
    out = np.zeros((size, size), dtype=complex)
    out[m, lo] = magnitude * (beta**powers)[d]
    out[lo, m] = magnitude * ((-np.conj(beta)) ** powers)[d]
    return out


def loop_displacement_matrix(alpha, size):
    """The entry-by-entry double loop `displacement_matrix` replaced, kept
    as the oracle for the vectorized form."""
    beta = -np.conj(complex(alpha))
    x = abs(beta) ** 2
    pref = math.exp(-0.5 * x)
    log_fact = np.zeros(size)
    for n in range(1, size):
        log_fact[n] = log_fact[n - 1] + math.log(n)
    out = np.zeros((size, size), dtype=complex)
    for m in range(size):
        for n in range(size):
            d = m - n
            if d >= 0:
                ratio = math.exp(0.5 * (log_fact[n] - log_fact[m]))
                out[m, n] = ratio * beta**d * pref * eval_genlaguerre(n, d, x)
            else:
                ratio = math.exp(0.5 * (log_fact[m] - log_fact[n]))
                out[m, n] = (
                    ratio * (-np.conj(beta)) ** (-d) * pref * eval_genlaguerre(m, -d, x)
                )
    return out
