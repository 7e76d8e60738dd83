import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rootgaps
from rootgaps import hermite, jacobi, laguerre
from rootgaps.covariance import OrthonormalBand, eigenbasis_stack
from rootgaps.eigensolve import enclose_eigenvalues

# Parameter grid shared by the sweep-style tests; mirrors the CLI default.
LAGUERRE_NUS = (0.1, 0.5, 1.0, 2.0, 10.0, 50.0)
JACOBI_PARAMS = ((-0.5, -0.5), (0.0, 0.0), (1.0, -0.9), (2.0, 3.0), (10.0, 10.0))


def all_families():
    fams = [hermite()]
    fams += [laguerre(nu) for nu in LAGUERRE_NUS]
    fams += [jacobi(a, b) for a, b in JACOBI_PARAMS]
    return fams


def loaded_after(script, prefixes):
    """The sorted names in ``sys.modules`` starting with one of
    ``prefixes`` once a fresh interpreter, with this ``rootgaps`` first on
    its path, has run ``script`` (``sys`` imported, ``sys.argv[1]`` the
    null device)."""
    src = str(Path(rootgaps.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    script = (
        f"import json, sys; {script}; "
        f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({tuple(prefixes)!r}))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, os.devnull], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return json.loads(proc.stdout)


def random_symmetric(rng, n, scale=1.0):
    a = rng.uniform(-scale, scale, size=(n, n))
    return (a + a.T) / 2.0


def ones_kernel_projection(a):
    """Conjugate with the projector onto the complement of (1,...,1)."""
    n = a.shape[0]
    p = np.eye(n) - np.full((n, n), 1.0 / n)
    b = p @ a @ p
    return (b + b.T) / 2.0


def closed_form_bases(group):
    """``eigenbasis_stack`` of the root vectors of one order, a band of
    one group."""
    return eigenbasis_stack(*OrthonormalBand([group]).rows(0))


def enclose_one(m, basis):
    """``enclose_eigenvalues`` of the one ``DenseSymmetric`` ``m``, a stack
    of one: its ``(centers, radii)``."""
    centers, radii = enclose_eigenvalues(m.entries[None], basis[None])
    return centers[0], radii[0]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
