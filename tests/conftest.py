import numpy as np
import pytest

from rootgaps import hermite, jacobi, laguerre
from rootgaps.covariance import OrthonormalBand, eigenbasis_stack, recurrence_table
from rootgaps.eigensolve import enclose_eigenvalues

# Parameter grid shared by the sweep-style tests; mirrors the CLI default.
LAGUERRE_NUS = (0.1, 0.5, 1.0, 2.0, 10.0, 50.0)
JACOBI_PARAMS = ((-0.5, -0.5), (0.0, 0.0), (1.0, -0.9), (2.0, 3.0), (10.0, 10.0))


def all_families():
    fams = [hermite()]
    fams += [laguerre(nu) for nu in LAGUERRE_NUS]
    fams += [jacobi(a, b) for a, b in JACOBI_PARAMS]
    return fams


def random_symmetric(rng, n, scale=1.0):
    a = rng.uniform(-scale, scale, size=(n, n))
    return (a + a.T) / 2.0


def ones_kernel_projection(a):
    """Conjugate with the projector onto the complement of (1,...,1)."""
    n = a.shape[0]
    p = np.eye(n) - np.full((n, n), 1.0 / n)
    b = p @ a @ p
    return (b + b.T) / 2.0


def recurrence_band(groups):
    """The ``OrthonormalBand`` of ``groups``, each a list of root vectors of
    one order, from one ``recurrence_table`` of all their points, as
    ``verify`` builds a band."""
    table, row = recurrence_table([rv for group in groups for rv in group])
    ends = np.cumsum([len(group) for group in groups])
    return OrthonormalBand(groups, table, np.split(row, ends[:-1]))


def closed_form_bases(group):
    """``eigenbasis_stack`` of the root vectors of one order, a band of
    one group."""
    return eigenbasis_stack(*recurrence_band([group]).rows(0))


def enclose_one(m, basis):
    """``enclose_eigenvalues`` of the one ``DenseSymmetric`` ``m``, a stack
    of one: its ``(centers, radii)``."""
    centers, radii = enclose_eigenvalues(m.entries[None], basis[None])
    return centers[0], radii[0]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
