import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavsim import (
    DensityMatrix,
    SubsystemLayout,
    monogamy_residual,
    pairwise_concurrences,
    partial_trace,
    run_scenario,
    wootters_concurrence,
)
from cavsim.entanglement import effective_two_qubit, pairwise_concurrence_stack
from cavsim.evolution import initial_density
from cavsim.validation import MIN_CKW_RESIDUAL, _ckw_residual

from conftest import margin_scenario, random_density, random_unitary, stage1_scenario


def bell_state() -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    return np.outer(v, v.conj())


def two_qubit(mat) -> DensityMatrix:
    return DensityMatrix(SubsystemLayout((2, 2), ("a", "b")), np.asarray(mat, complex))


class TestWoottersConcurrence:
    def test_bell_state(self):
        assert wootters_concurrence(bell_state()) == pytest.approx(1.0, abs=1e-12)

    def test_product_states(self, rng):
        for _ in range(5):
            rho = np.kron(random_density(rng, 2), random_density(rng, 2))
            assert wootters_concurrence(rho) < 1e-7

    def test_werner_state(self):
        # closed form max(0, (3p-1)/2); the function itself is the eigen-solve
        for p, expected in ((0.6, 0.4), (0.2, 0.0), (1.0, 1.0)):
            rho = p * bell_state() + (1.0 - p) * np.eye(4) / 4.0
            assert wootters_concurrence(rho) == pytest.approx(expected, abs=1e-12)

    def test_separable_mixtures_are_zero(self, rng):
        for _ in range(10):
            k = rng.integers(2, 6)
            weights = rng.random(k)
            weights /= weights.sum()
            rho = sum(
                w * np.kron(random_density(rng, 2), random_density(rng, 2))
                for w in weights
            )
            assert wootters_concurrence(rho) < 1e-7

    def test_pure_state_tangle_identity(self, rng):
        # for pure two-qubit states C^2 = 4 det(single-party reduction)
        for _ in range(5):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            red = np.einsum("abcb->ac", rho.reshape(2, 2, 2, 2))
            c = wootters_concurrence(rho)
            assert c**2 == pytest.approx(4.0 * np.linalg.det(red).real, abs=1e-8)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            wootters_concurrence(np.eye(3) / 3)


class TestEffectiveTwoQubit:
    def test_exact_two_dim_span_loses_nothing(self, rng):
        # atom (x) field supported on the first two Fock states
        rho_small = random_density(rng, 4)
        big = np.zeros((12, 12), dtype=complex)
        idx = [0, 1, 6, 7]  # (s, n) with n < 2 in a 2x6 layout
        big[np.ix_(idx, idx)] = rho_small
        pair = DensityMatrix(SubsystemLayout((2, 6), ("atom", "field1")), big)
        red = effective_two_qubit(pair)
        assert red.discarded_weight < 1e-12
        assert wootters_concurrence(red.two_qubit_state) == pytest.approx(
            wootters_concurrence(rho_small), abs=1e-10
        )

    def test_product_of_fields_gives_zero(self, rng):
        from cavsim.hilbert import coherent_vector

        c1 = coherent_vector(0.5, 10)
        c2 = coherent_vector(0.3 + 0.2j, 10)
        pair = DensityMatrix(
            SubsystemLayout((11, 11), ("field1", "field2")),
            np.kron(np.outer(c1, c1.conj()), np.outer(c2, c2.conj())),
        )
        red = effective_two_qubit(pair)
        assert red.support_deficient  # each side is pure: rank 1
        assert wootters_concurrence(red.two_qubit_state) < 1e-12

    def test_stage1_reduction_matches_closed_form(self):
        from cavsim import concurrence_stage1, rho_stage1

        sc = stage1_scenario(alpha=0.5, g=0.05)
        t = 0.3 * math.pi / sc.omega_1
        pair = partial_trace(rho_stage1(t, sc), ("atom", "field1"))
        red = effective_two_qubit(pair)
        assert red.discarded_weight < 1e-9
        assert wootters_concurrence(red.two_qubit_state) == pytest.approx(
            concurrence_stage1(t, sc), abs=1e-6
        )

    def test_degenerate_support_ties_are_harmless(self, rng):
        # rotate within the kept support: concurrence must not move
        sc = stage1_scenario(alpha=1.0, g=0.1)
        pair = partial_trace(
            run_scenario(sc, [200.0]).states[0], ("atom", "field1")
        )
        red = effective_two_qubit(pair)
        base = wootters_concurrence(red.two_qubit_state)
        for _ in range(4):
            u = np.kron(np.eye(2), random_unitary(rng, 2))
            rotated = u @ red.two_qubit_state @ u.conj().T
            assert wootters_concurrence(rotated) == pytest.approx(base, abs=1e-10)


class TestPairwiseConcurrences:
    def test_initial_product_state(self):
        sc = margin_scenario(alpha=0.5, beta=0.5)
        pc = pairwise_concurrences(initial_density(sc))
        assert max(pc.c_af1, pc.c_af2, pc.c_f1f2) < 1e-12
        assert pc.discarded_weight < 1e-10
        assert pc.flags == ()

    def test_end_of_cavity1_only_af1(self):
        sc = stage1_scenario(alpha=1.0, g=0.05)
        from cavsim import concurrence_stage1

        t = 0.4 * math.pi / sc.omega_1
        pc = pairwise_concurrences(run_scenario(sc, [t]).states[0])
        assert pc.c_af1 == pytest.approx(concurrence_stage1(t, sc), abs=1e-6)
        assert pc.c_af2 < 1e-8
        assert pc.c_f1f2 < 1e-8

    def test_five_stage_run_af_pairs_positive_ff_zero(self):
        # the atom never exchanges excitations, so tracing it always leaves
        # the two fields in a mixture of products: C_F1F2 is identically zero
        sc = margin_scenario(alpha=0.5, beta=0.5, g=0.0, q=0.0)
        pc = pairwise_concurrences(run_scenario(sc, [sc.total_time()]).states[0])
        assert pc.c_af1 > 0.05
        assert pc.c_af2 > 0.05
        assert pc.c_f1f2 < 1e-12

    def test_local_unitary_invariance(self, rng):
        sc = margin_scenario(alpha=0.5, beta=0.5, g=0.05, q=0.05, extra=4)
        rho = run_scenario(sc, [sc.total_time()]).states[0]
        base = pairwise_concurrences(rho)
        dims = rho.layout.dims
        u = np.kron(
            random_unitary(rng, 2),
            np.kron(random_unitary(rng, dims[1]), random_unitary(rng, dims[2])),
        )
        rotated = DensityMatrix(rho.layout, u @ rho.data @ u.conj().T)
        pc = pairwise_concurrences(rotated)
        assert abs(pc.c_af1 - base.c_af1) < 1e-8
        assert abs(pc.c_af2 - base.c_af2) < 1e-8
        assert abs(pc.c_f1f2 - base.c_f1f2) < 1e-8


def _off_support_state() -> np.ndarray:
    """Atom (x) fields state on (2, 4, 4) whose field pair has no weight on its product support.

    Both field reductions are I/4, so the top-2 supports are two Fock states
    each, and the field pair lives on |0,2>, |1,3>, |2,0>, |3,1> only.
    """
    fields = np.zeros((16, 16))
    for n, m in ((0, 2), (1, 3), (2, 0), (3, 1)):
        fields[4 * n + m, 4 * n + m] = 0.25
    return np.kron(np.diag([0.5, 0.5]), fields).astype(complex)


class TestStackedExtraction:
    """Each entry of a stacked extraction equals the single-state call exactly."""

    @settings(max_examples=40, deadline=None)
    @given(
        r1=st.sampled_from([2, 3, 4]),
        r2=st.sampled_from([2, 3, 4]),
        ranks=st.lists(st.sampled_from([1, 2, None]), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
        at=st.integers(0, 6),
    )
    @example(r1=4, r2=4, ranks=[None, 1], seed=0, at=1)
    def test_stack_entries_equal_single_calls(self, r1, r2, ranks, seed, at):
        rng = np.random.default_rng(seed)
        layout = SubsystemLayout((2, r1, r2), ("atom", "field1", "field2"))
        d = layout.dim
        # rank 1 (pure) and rank 2 states are rank deficient; None is full rank
        stack = [random_density(rng, d) if k is None else _low_rank(rng, d, k) for k in ranks]
        if (r1, r2) == (4, 4):
            stack.insert(min(at, len(stack)), _off_support_state())
        stack = np.array(stack)
        batched = pairwise_concurrence_stack(stack, layout.dims)
        assert len(batched) == len(stack)
        for rho, got in zip(stack, batched):
            single = pairwise_concurrences(DensityMatrix(layout, rho))
            assert np.array_equal(
                [got.c_af1, got.c_af2, got.c_f1f2], [single.c_af1, single.c_af2, single.c_f1f2]
            )
            assert np.array_equal(got.discarded_weight, single.discarded_weight)
            assert got.flags == single.flags

    def test_off_support_pair_takes_the_stub(self):
        layout = SubsystemLayout((2, 4, 4), ("atom", "field1", "field2"))
        rho = DensityMatrix(layout, _off_support_state())
        red = effective_two_qubit(partial_trace(rho, (1, 2)))
        assert red.discarded_weight == 1.0
        assert red.support_deficient
        assert np.array_equal(red.two_qubit_state, np.eye(4) / 4.0)
        assert "support_loss:F1F2" in pairwise_concurrences(rho).flags


def _low_rank(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestMonogamy:
    def test_product_state_residual_zero(self):
        sc = margin_scenario(alpha=0.5, beta=0.5)
        res = monogamy_residual(initial_density(sc))
        assert res == pytest.approx(0.0, abs=1e-10)

    def test_pure_bipartite_tangle_equals_squared_concurrence(self):
        sc = stage1_scenario(alpha=1.0, g=0.0)
        t = 0.35 * math.pi / sc.omega_1
        rho = run_scenario(sc, [t]).states[0]
        res = monogamy_residual(rho)
        assert res == pytest.approx(0.0, abs=1e-6)

    def test_mixed_state_not_applicable(self):
        sc = margin_scenario(alpha=1.0, beta=0.5, g=0.5, q=0.5)
        rho = run_scenario(sc, [60.0]).states[0]
        assert monogamy_residual(rho) is None
        assert _ckw_residual([initial_density(sc), rho]) < MIN_CKW_RESIDUAL  # a mixed state fails

    def test_full_pure_run_respects_ckw(self):
        sc = margin_scenario(alpha=1.0, beta=1.0, g=0.0, q=0.0)
        states = run_scenario(sc, np.linspace(0.0, sc.total_time(), 7)).states
        assert _ckw_residual(states) >= MIN_CKW_RESIDUAL  # every state pure, residual >= -1e-6
