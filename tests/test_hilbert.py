import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavsim import (
    DensityMatrix,
    NonPhysicalState,
    SubsystemLayout,
    TruncationTooSmall,
    coherent_overlap,
    mean_photon_number,
    partial_trace,
    photon_number_distribution,
    standard_layout,
    trace_distance,
)
from cavsim import hilbert
from cavsim.hilbert import coherent_vector, half_trace_norm
from cavsim.validation import MIN_EIGENVALUE, _min_eigenvalue

from conftest import random_density, random_unitary


def dm(layout, mat):
    return DensityMatrix(layout, np.asarray(mat, dtype=complex))


def pure(layout, vec):
    return DensityMatrix(layout, np.outer(vec, vec.conj()))


def coherent(amplitude, truncation, label="field"):
    """Single-mode density matrix of the truncated coherent vector."""
    layout = SubsystemLayout((truncation + 1,), (label,))
    return pure(layout, coherent_vector(amplitude, truncation))


def qubit_layout(n=1):
    return SubsystemLayout((2,) * n, tuple(f"q{i}" for i in range(n)))


class TestLayout:
    def test_standard_layout(self):
        lay = standard_layout(10, 5)
        assert lay.dims == (2, 11, 6)
        assert lay.dim == 2 * 11 * 6
        assert lay.index("field2") == 2

    def test_atom_dimension_enforced(self):
        with pytest.raises(ValueError):
            SubsystemLayout((3, 4), ("atom", "field1"))


class TestCoherentState:
    def test_vacuum(self):
        expected = np.zeros(11)
        expected[0] = 1.0
        assert np.allclose(coherent_vector(0.0, 10), expected)

    def test_mean_photon_number_alpha_one(self):
        rho = coherent(1.0, 20)
        nbar = float(np.dot(np.diag(rho.data).real, np.arange(21)))
        assert abs(nbar - 1.0) < 1e-9
        assert abs(mean_photon_number(rho, 0) - 1.0) < 1e-9

    def test_truncation_too_small(self):
        # oracle: direct Poisson(4) summation shows the tail beyond n=8 is huge
        lam = 4.0
        pmf = [math.exp(-lam) * lam**n / math.factorial(n) for n in range(9)]
        assert 1.0 - sum(pmf) > 1e-10
        with pytest.raises(TruncationTooSmall):
            coherent_vector(2.0, 8)

    def test_renormalized(self):
        assert abs(np.linalg.norm(coherent_vector(1.5, 25)) - 1.0) < 1e-12


class TestCoherentOverlap:
    def test_identical_vacua(self):
        assert coherent_overlap(0.0, 0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("a", [0.3, 1.0 + 0.5j, -2.0j])
    def test_identical_states(self, a):
        assert coherent_overlap(a, a) == pytest.approx(1.0)

    def test_opposite_unit_amplitudes(self):
        # frozen closed form e^{-2}, cross-checked against truncated vectors at N=40
        val = coherent_overlap(1.0, -1.0)
        assert val == pytest.approx(0.1353352832366127, abs=1e-12)
        va = coherent_vector(1.0, 40)
        vb = coherent_vector(-1.0, 40)
        assert abs(np.vdot(va, vb) - val) < 1e-10

    @pytest.mark.parametrize("a,b", [(0.5, 0.2 + 0.1j), (1.2j, -0.7), (0.9, 1.1)])
    def test_matches_truncated_inner_product(self, a, b):
        # agreement holds whenever both truncation tails are < 1e-12
        va = coherent_vector(a, 35)
        vb = coherent_vector(b, 35)
        assert abs(np.vdot(va, vb) - coherent_overlap(a, b)) < 1e-10


class TestTensorProduct:
    def test_basis_vector_index_zero(self):
        atom = np.array([1.0, 0.0], dtype=complex)
        fields = np.kron(coherent_vector(0.0, 3), coherent_vector(0.0, 2))
        rho = pure(standard_layout(3, 2), np.kron(atom, fields))
        assert rho.layout.dims == (2, 4, 3)
        expected = np.zeros((24, 24))
        expected[0, 0] = 1.0
        assert np.allclose(rho.data, expected)

    def test_identity_kron(self):
        out = np.kron(np.eye(2), np.eye(3))
        assert np.allclose(out, np.eye(6))

    def test_kronecker_blocks(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3))
        out = np.kron(a, b)
        for i in range(2):
            for j in range(2):
                assert np.allclose(out[3 * i : 3 * i + 3, 3 * j : 3 * j + 3], a[i, j] * b)


class TestPartialTrace:
    def test_product_state(self, rng):
        ra = random_density(rng, 2)
        rb = random_density(rng, 5)
        lay = SubsystemLayout((2, 5), ("atom", "field1"))
        rho = dm(lay, np.kron(ra, rb))
        red = partial_trace(rho, ("atom",))
        assert np.allclose(red.data, ra, atol=1e-12)

    def test_maximally_entangled(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / math.sqrt(2)
        rho = dm(qubit_layout(2), np.outer(bell, bell.conj()))
        for keep in (0, 1):
            red = partial_trace(rho, (keep,))
            assert np.allclose(red.data, np.eye(2) / 2, atol=1e-12)

    def test_composition(self, rng):
        lay = SubsystemLayout((2, 3, 4), ("a", "b", "c"))
        rho = dm(lay, random_density(rng, 24))
        two_step = partial_trace(partial_trace(rho, (0, 1)), (0,))
        one_step = partial_trace(rho, (0,))
        assert np.allclose(two_step.data, one_step.data, atol=1e-13)

    def test_trace_preserved(self, rng):
        lay = SubsystemLayout((2, 3, 4), ("a", "b", "c"))
        rho = dm(lay, random_density(rng, 24))
        red = partial_trace(rho, (1,))
        assert abs(red.trace() - 1.0) < 1e-12


class TestTraceDistance:
    def test_self_distance(self, rng):
        rho = dm(qubit_layout(), random_density(rng, 2))
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_pure_states(self):
        lay = qubit_layout()
        r0 = dm(lay, np.diag([1.0, 0.0]))
        r1 = dm(lay, np.diag([0.0, 1.0]))
        assert trace_distance(r0, r1) == pytest.approx(1.0, abs=1e-14)

    def test_zero_versus_plus(self):
        # frozen: eigenvalues of the 2x2 difference are +-1/sqrt(2)
        lay = qubit_layout()
        r0 = dm(lay, np.diag([1.0, 0.0]))
        plus = np.full((2, 2), 0.5)
        assert trace_distance(r0, dm(lay, plus)) == pytest.approx(
            0.7071067811865476, abs=1e-12
        )

    def test_metric_properties(self, rng):
        lay = SubsystemLayout((4,), ("x",))
        a = dm(lay, random_density(rng, 4))
        b = dm(lay, random_density(rng, 4))
        c = dm(lay, random_density(rng, 4))
        assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-13)
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12

    @pytest.mark.parametrize("bound, below", [(1.2e-3, True), (0.9e-3, False)])
    def test_below_reuses_the_difference_when_inconclusive(self, monkeypatch, bound, below):
        # delta = diag(0, e, -e, 0) with e = 1e-3: the sqrt(dim) Frobenius estimate reads
        # sqrt(2) e and the exact distance e, so any bound up to sqrt(2) e needs the eigenvalues
        lay = SubsystemLayout((4,), ("x",))
        rho = dm(lay, np.diag([0.4, 0.3, 0.2, 0.1]))
        sigma = dm(lay, np.diag([0.4, 0.299, 0.201, 0.1]))
        assert (trace_distance(rho, sigma) < bound) is below
        norms = []
        monkeypatch.setattr(hilbert, "trace_distance", None)  # no second difference
        monkeypatch.setattr(
            hilbert, "half_trace_norm", lambda d: norms.append(d) or half_trace_norm(d)
        )
        assert (hilbert.certified_trace_distance(rho, sigma, bound) < bound) is below
        assert len(norms) == 1


class TestCertifiedHalfTraceNorm:
    TOL = 1e-8

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 12),
        exponent=st.floats(-1.5, 1.5),
    )
    def test_bounds_the_exact_norm_and_agrees_on_the_verdict(self, seed, dim, exponent):
        # exact distances from 0.03 to 30 tolerances: both the Frobenius bound
        # and the eigen-solve fallback decide some of them
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        delta = (a + a.conj().T) * (self.TOL * 10.0**exponent / half_trace_norm(a + a.conj().T))
        exact = half_trace_norm(delta)
        certified = hilbert.certified_half_trace_norm(delta, self.TOL)
        assert certified >= exact
        assert (certified < self.TOL) == (exact < self.TOL)

    def test_nan_difference_does_not_pass(self):
        # a NaN above the diagonal, which the lower-triangle eigen-solve does not read
        delta = np.zeros((3, 3), dtype=complex)
        delta[0, 2] = math.nan
        assert math.isnan(hilbert.certified_half_trace_norm(delta, self.TOL))
        lay = SubsystemLayout((3,), ("x",))
        rho = dm(lay, np.diag([0.5, 0.25, 0.25]))
        sigma = dm(lay, rho.data + delta)
        assert math.isnan(hilbert.certified_trace_distance(rho, sigma, self.TOL))


class TestHalfTraceNorm:
    def test_nan_above_the_diagonal_gives_nan(self):
        # the eigen-solve reads the lower triangle only and sees the identity
        x = np.eye(3, dtype=complex)
        x[0, 1] = math.nan
        assert np.linalg.eigvalsh(x).tolist() == [1.0, 1.0, 1.0]
        assert math.isnan(half_trace_norm(x))


@functools.lru_cache(maxsize=None)
def planting_unitary(dim):
    return random_unitary(np.random.default_rng(dim), dim)


def planted_state(dim, lowest, rank):
    """U diag(spectrum) U^dag of unit trace whose smallest eigenvalue is ``lowest``;
    ``rank`` other eigenvalues are positive and the rest are 0 (snapshots of a
    nearly pure run have many eigenvalues at roundoff)."""
    spectrum = np.zeros(dim)
    spectrum[1 : rank + 1] = np.random.default_rng(rank).uniform(0.1, 1.0, rank)
    spectrum *= (1.0 - lowest) / spectrum.sum()
    spectrum[0] = lowest
    u = planting_unitary(dim)
    x = (u * spectrum) @ u.conj().T
    return 0.5 * (x + x.conj().T)


class TestCertifiedMinEigenvalue:
    @staticmethod
    def shift(x):
        """The documented shift c = k (n + 2) u sum |x_ii| of the certificate."""
        n = x.shape[0]
        diagonal = float(np.sum(np.abs(x.diagonal())))
        return hilbert.CHOLESKY_SAFETY * (n + 2) * hilbert.UNIT_ROUNDOFF * diagonal

    @pytest.mark.parametrize("dim", [8, 128, 512, 882])
    @pytest.mark.parametrize("rank", ["full", 4])
    def test_never_above_the_exact_value_and_agrees_on_the_verdict(self, dim, rank):
        # planted from far below MIN_EIGENVALUE (-1e-9), through just below and
        # just above it, down to roundoff and an exact zero
        for lowest in (-1e-6, -1.1e-9, -0.9e-9, -1e-12, -1e-15, 0.0):
            x = planted_state(dim, lowest, dim - 1 if rank == "full" else rank)
            exact = float(np.linalg.eigvalsh(x)[0])
            assert exact == pytest.approx(lowest, abs=1e-14)
            certified = hilbert.certified_min_eigenvalue(x, MIN_EIGENVALUE)
            assert certified <= exact
            assert (certified >= MIN_EIGENVALUE) == (exact >= MIN_EIGENVALUE)

    def test_a_healthy_state_is_certified_without_an_eigen_solve(self, rng, monkeypatch):
        x = random_density(rng, 64)
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        assert hilbert.certified_min_eigenvalue(x, MIN_EIGENVALUE) == -2.0 * self.shift(x)

    def test_a_bound_above_the_certificate_takes_the_exact_path(self, rng, monkeypatch):
        x = random_density(rng, 64)
        exact = float(np.linalg.eigvalsh(x)[0])
        monkeypatch.setattr(np.linalg, "cholesky", None)
        assert hilbert.certified_min_eigenvalue(x, -self.shift(x)) == exact

    @pytest.mark.parametrize("where", [(3, 3), (0, 5), (5, 0)])
    def test_non_finite_entry_gives_nan(self, rng, where):
        # OpenBLAS completes a factorization through a NaN, and the eigen-solve
        # may drop a NaN on the diagonal or raise on one below it
        for bad in (math.nan, math.inf):
            x = random_density(rng, 8)
            x[where] = bad
            assert math.isnan(hilbert.certified_min_eigenvalue(x, MIN_EIGENVALUE))


class TestHermiticityDefect:
    @pytest.mark.parametrize("dim", [1, 5, 64, 65, 130, 200])
    def test_equals_the_plain_expression(self, rng, dim):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for x in (a, a + a.conj().T + 1e-13 * a, random_density(rng, dim)):
            assert hilbert.hermiticity_defect(x) == float(np.max(np.abs(x - x.conj().T)))

    @pytest.mark.parametrize("dim", [2, 65, 130])
    def test_nan_is_kept(self, rng, dim):
        for i, j in ((0, dim - 1), (dim - 1, 0), (dim // 2, dim // 2), (dim - 1, dim - 1)):
            x = random_density(rng, dim)
            x[i, j] = math.nan
            assert math.isnan(hilbert.hermiticity_defect(x))
            assert math.isnan(float(np.max(np.abs(x - x.conj().T))))


class TestPhotonDistribution:
    def test_vacuum(self):
        layout = SubsystemLayout((2, 7), ("atom", "field1"))
        psi = np.kron(np.array([1.0, 0.0], dtype=complex), coherent_vector(0.0, 6))
        rho = pure(layout, psi)
        probs = photon_number_distribution(rho, "field1")
        assert probs[0] == pytest.approx(1.0)
        assert np.all(probs[1:] < 1e-14)

    def test_coherent_poisson(self):
        rho = coherent(1.0, 25, label="field1")
        probs = photon_number_distribution(rho, 0)
        assert probs[0] == pytest.approx(math.exp(-1.0), abs=1e-10)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_atom_rejected(self):
        lay = standard_layout(3, 3)
        rho = dm(lay, np.eye(lay.dim) / lay.dim)
        with pytest.raises(ValueError):
            photon_number_distribution(rho, "atom")


class TestValidation:
    def test_validate_passes_physical_state(self, rng):
        lay = SubsystemLayout((4,), ("x",))
        state = dm(lay, random_density(rng, 4)).validate()
        assert _min_eigenvalue([state]) >= MIN_EIGENVALUE

    def test_validate_rejects_nonhermitian(self):
        lay = qubit_layout()
        mat = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(NonPhysicalState):
            dm(lay, mat).validate()

    def test_validate_rejects_bad_trace(self):
        lay = qubit_layout()
        with pytest.raises(NonPhysicalState):
            dm(lay, np.diag([0.7, 0.7])).validate()

    def test_validate_rejects_nan(self):
        # a NaN Hermiticity defect and trace compare False with any tolerance
        with pytest.raises(NonPhysicalState):
            dm(qubit_layout(), np.full((2, 2), np.nan, dtype=complex)).validate()

    def test_min_eigenvalue_flags_negative_eigenvalue(self):
        lay = qubit_layout()
        assert _min_eigenvalue([dm(lay, np.diag([1.5, -0.5]))]) < MIN_EIGENVALUE
