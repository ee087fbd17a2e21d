import os

# One BLAS thread, set before numpy loads OpenBLAS (as bench/ does): on a busy
# machine the default thread pool competes with other processes and made the
# dense certification grid about 1.7x slower.  Results agree to rounding.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from cavsim import Scenario, lindblad  # noqa: E402
from cavsim.validation import CERT_MARGIN, _with_margin  # noqa: E402


def margin_scenario(alpha=1.0, beta=0.5, g=0.0, q=0.0, extra=CERT_MARGIN, **kw) -> Scenario:
    """Scenario with Fock cutoffs ``extra`` above the default rule.

    Raw-state comparisons at 1e-8 need the coherent tails pushed well below
    the default rule's ~1e-14 mass.
    """
    return _with_margin(Scenario().variant(g=g, q=q, alpha=alpha, beta=beta, **kw), extra)


def stage1_scenario(alpha=1.0, g=0.0, t1=1000.0, **kw) -> Scenario:
    """Single-cavity traversal (everything after cavity 1 has zero duration)."""
    return margin_scenario(alpha=alpha, g=g, stage_durations=(t1, 0.0, 0.0, 0.0, 0.0), **kw)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def run_halves_inline(size, fn, first, second):  # evolution._in_halves on one thread
    return fn(*first), fn(*second)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def oracle_controls(monkeypatch):
    """Setter of the RK4 oracle's step controls for one test, by lower-case name:
    ``oracle_controls(abs_tol=1e-9)`` patches ``lindblad.ABS_TOL`` (likewise
    ``initial_step`` and ``max_step``).  ``abs_tol=inf`` accepts every step."""

    def set_controls(**controls):
        for name, value in controls.items():
            monkeypatch.setattr(lindblad, name.upper(), value)

    return set_controls
