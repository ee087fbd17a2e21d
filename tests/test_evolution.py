import math

import numpy as np
import pytest

from cavsim import (
    BranchState,
    ConfigError,
    DensityMatrix,
    Scenario,
    StageKind,
    UnsupportedInitialState,
    branch_run,
    coherent_state,
    default_truncation,
    dispersive_unitary,
    dispersive_validity,
    dissipative_map,
    initial_density,
    mean_photon_number,
    ramsey_unitary,
    rho_stage1,
    run_scenario,
    stage_step,
    standard_layout,
    trace_distance,
)
from cavsim.analytic import coherence_factor
from cavsim.evolution import BranchState as BS
from cavsim.evolution import branch_compress, branch_densify, branch_step
from cavsim.hilbert import coherent_overlap, coherent_vector

from conftest import margin_scenario, random_density, stage1_scenario


def embed_field1(rho_field: np.ndarray, n1: int, n2: int, atom_level: int = 0) -> DensityMatrix:
    """|s><s| (x) rho_field (x) |0><0| on the standard layout."""
    atom = np.zeros((2, 2))
    atom[atom_level, atom_level] = 1.0
    vac = np.zeros((n2 + 1, n2 + 1))
    vac[0, 0] = 1.0
    full = np.kron(atom, np.kron(rho_field, vac))
    return DensityMatrix(standard_layout(n1, n2), full)


def _mix(terms):
    from cavsim.evolution import _branch_ramsey_mix

    return _branch_ramsey_mix(terms, math.pi / 4)


def _weight_moduli(state):
    return [
        abs(w)
        for key in sorted(state.terms)
        for (w, *_rest) in state.terms[key]
    ]


def amplitude_damping_kraus(n: int, eta: float) -> list[np.ndarray]:
    """Independent zero-temperature damping channel, survival probability eta."""
    ops = []
    for k in range(n + 1):
        mat = np.zeros((n + 1, n + 1))
        for m in range(k, n + 1):
            mat[m - k, m] = math.sqrt(
                math.comb(m, k) * eta ** (m - k) * (1.0 - eta) ** k
            )
        ops.append(mat)
    return ops


class TestStageOperators:
    def test_dispersive_identity_at_zero(self):
        assert np.allclose(dispersive_unitary(0.1, 0.0, 5), np.eye(12))

    def test_dispersive_vacuum_phases(self):
        u = dispersive_unitary(1.0, math.pi, 3)
        assert u[0, 0] == pytest.approx(-1.0)  # |e,0>
        assert u[4, 4] == pytest.approx(1.0)  # |g,0>

    def test_dispersive_unitary_is_unitary(self):
        u = dispersive_unitary(0.37, 2.1, 6)
        assert np.allclose(u @ u.conj().T, np.eye(14), atol=1e-12)

    def test_dispersive_rotates_coherent_label(self):
        # |e> (x) |z> -> e^{-i w tau} |e> (x) |z e^{-i w tau}>, checked at N=30
        n = 30
        omega, tau, z = 0.2, 3.0, 1.1 + 0.3j
        u = dispersive_unitary(omega, tau, n)
        vec = np.kron(np.array([1.0, 0.0]), coherent_vector(z, n))
        out = u @ vec
        phase = np.exp(-1j * omega * tau)
        expected = phase * np.kron(np.array([1.0, 0.0]), coherent_vector(z * phase, n))
        assert np.allclose(out, expected, atol=1e-12)

    def test_ramsey_identity(self):
        assert np.allclose(ramsey_unitary(0.0), np.eye(2))

    def test_ramsey_quarter_pi(self):
        out = ramsey_unitary(math.pi / 4) @ np.array([1.0, 0.0])
        assert np.allclose(out, np.array([1.0, -1j]) / math.sqrt(2))

    def test_ramsey_half_pi_exchanges_levels(self):
        assert np.allclose(ramsey_unitary(math.pi / 2), -1j * np.array([[0, 1], [1, 0]]))


class TestDissipativeMap:
    def test_vacuum_fixed_point(self):
        sc = Scenario().variant(g=0.7, q=0.3, alpha=0.0, beta=0.0, n1=4, n2=4)
        rho = initial_density(sc)
        out = dissipative_map(rho, StageKind.FREE1, 17.0, sc)
        assert trace_distance(out, rho) < 1e-12

    def test_gamma_zero_is_identity(self):
        sc = margin_scenario(alpha=1.0, g=0.0, q=0.0)
        rho = initial_density(sc)
        out = dissipative_map(rho, StageKind.CAVITY1, 25.0, sc)
        assert np.allclose(out.data, rho.data, atol=1e-14)

    def test_matches_kraus_amplitude_damping(self, rng):
        # independent oracle: explicit damping Kraus operators at N=30
        n = 30
        gamma, tau = 0.02, 6.0
        from conftest import random_density

        rho_f = random_density(rng, n + 1)
        sc = Scenario().variant(alpha=0.0, beta=0.0, n1=n, n2=1, gamma_1=gamma)
        rho = embed_field1(rho_f, n, 1)
        out = dissipative_map(rho, StageKind.FREE1, tau, sc)
        kraus = amplitude_damping_kraus(n, math.exp(-2.0 * gamma * tau))
        expected_f = sum(k @ rho_f @ k.conj().T for k in kraus)
        expected = embed_field1(expected_f, n, 1)
        assert trace_distance(out, expected) < 1e-9

    def test_coherent_state_contracts(self):
        # atomic-diagonal block: |z><z| -> |z e^{-gamma tau}><z e^{-gamma tau}|
        n = 30
        z, gamma, tau = 1.3, 0.05, 8.0
        sc = Scenario().variant(alpha=0.0, beta=0.0, n1=n, n2=1, gamma_1=gamma)
        cz = coherent_vector(z, n)
        rho = embed_field1(np.outer(cz, cz.conj()), n, 1)
        out = dissipative_map(rho, StageKind.FREE1, tau, sc)
        cz2 = coherent_vector(z * math.exp(-gamma * tau), n)
        expected = embed_field1(np.outer(cz2, cz2.conj()), n, 1)
        assert trace_distance(out, expected) < 1e-12

    def test_trace_preserved_with_interaction(self):
        sc = margin_scenario(alpha=1.0, beta=1.0, g=0.5, q=0.5)
        rho = initial_density(sc)
        out = dissipative_map(rho, StageKind.CAVITY1, 12.0, sc)
        assert abs(out.trace() - 1.0) < 1e-10


class TestStageStep:
    def test_identity_when_everything_off(self):
        sc = Scenario().variant(
            g=0.0, q=0.0, alpha=0.5, beta=0.5, omega_1=0.0, omega_2=0.0,
            Omega_1=None, Omega_2=None, ramsey_angle=0.0,
        )
        rho = initial_density(sc)
        for stage in StageKind:
            out = stage_step(rho, stage, 10.0, sc)
            assert np.allclose(out.data, rho.data, atol=1e-13)

    def test_lossless_cavity_matches_analytic(self):
        sc = stage1_scenario(alpha=1.0, g=0.0)
        t = 97.0
        out = run_scenario(sc, [t]).states[0]
        assert trace_distance(out, rho_stage1(t, sc)) < 1e-10

    def test_lossy_cavity_matches_analytic(self):
        sc = stage1_scenario(alpha=1.0, g=0.05)
        t = 400.0
        out = run_scenario(sc, [t]).states[0]
        assert trace_distance(out, rho_stage1(t, sc)) < 1e-8

    @pytest.mark.parametrize(
        "stage",
        [StageKind.CAVITY1, StageKind.FREE1, StageKind.RAMSEY, StageKind.CAVITY2],
    )
    def test_semigroup_property(self, stage):
        sc = margin_scenario(alpha=1.0, beta=0.8, g=0.5, q=0.3)
        rho = initial_density(sc)
        one = stage_step(rho, stage, 9.0, sc)
        two = stage_step(stage_step(rho, stage, 4.0, sc), stage, 5.0, sc)
        assert trace_distance(one, two) < 1e-9

    def test_trace_preserved_every_step(self):
        sc = margin_scenario(alpha=1.0, beta=1.0, g=1.0, q=1.0)
        rho = initial_density(sc)
        for stage in StageKind:
            rho = stage_step(rho, stage, 10.0, sc)
            assert abs(rho.trace() - 1.0) < 1e-10


class TestRunScenario:
    def test_zero_durations_returns_initial(self):
        sc = Scenario().variant(stage_durations=(0.0,) * 5, ramsey_angle=0.0)
        traj = run_scenario(sc, [0.0])
        assert trace_distance(traj.states[0], initial_density(sc)) < 1e-14

    def test_lossless_run_stays_pure(self):
        sc = margin_scenario(alpha=0.5, beta=0.5, g=0.0, q=0.0)
        traj = run_scenario(sc, [sc.total_time()])
        assert traj.states[0].purity() == pytest.approx(1.0, abs=1e-8)

    def test_mean_photon_decay_decoupled(self):
        # fields decoupled: <n>(t) = <n>(0) e^{-2 gamma t}
        sc = margin_scenario(alpha=1.5, beta=0.5, g=0.8, q=0.4, extra=8).variant(
            omega_1=0.0, omega_2=0.0, Omega_1=None, Omega_2=None, ramsey_angle=0.0
        )
        rho0 = initial_density(sc)
        n0 = mean_photon_number(rho0, "field1")
        t = 42.0
        traj = run_scenario(sc, [t])
        n_t = mean_photon_number(traj.states[0], "field1")
        assert abs(n_t - n0 * math.exp(-2.0 * sc.gamma_1 * t)) < 1e-8 * n0

    def test_sample_grid_validation(self):
        sc = Scenario()
        with pytest.raises(ValueError):
            run_scenario(sc, [10.0, 5.0])
        with pytest.raises(ValueError):
            run_scenario(sc, [sc.total_time() + 1.0])

    def test_instantaneous_ramsey_at_zero_duration(self):
        full = Scenario().variant(alpha=0.5, beta=0.5, stage_durations=(30.0, 10.0, 10.0, 10.0, 30.0))
        instant = full.variant(stage_durations=(30.0, 10.0, 0.0, 10.0, 30.0))
        t_end = instant.total_time()
        out = run_scenario(instant, [t_end]).states[0]
        # the pulse must have acted: the run differs from a ramsey_angle=0 run
        out_no_pulse = run_scenario(
            instant.variant(ramsey_angle=0.0), [t_end]
        ).states[0]
        assert trace_distance(out, out_no_pulse) > 1e-3

    def test_boundary_sample_belongs_to_earliest_stage(self):
        sc = margin_scenario(alpha=0.5, beta=0.5, g=0.2, q=0.1)
        t1 = sc.stage_durations[0]
        a = run_scenario(sc, [t1]).states[0]
        b = stage_step(initial_density(sc), StageKind.CAVITY1, t1, sc)
        assert trace_distance(a, b) < 1e-12


class TestBranchBackend:
    def test_matches_dense_over_five_stages(self):
        sc = margin_scenario(alpha=1.0, beta=1.0, g=0.05, q=0.5)
        times = np.linspace(0.0, sc.total_time(), 7)
        dense = run_scenario(sc, times)
        branch = branch_run(sc, times)
        for i in range(times.size):
            assert trace_distance(dense.states[i], branch.dense_state(i)) < 1e-8

    def test_coherence_weight_reproduces_x_over_two(self):
        sc = stage1_scenario(alpha=1.0, g=0.3)
        t = 180.0
        traj = branch_run(sc, [t])
        terms = traj.states[0].terms[(0, 1)]
        assert len(terms) == 1
        weight = terms[0][0]
        assert weight == pytest.approx(0.5 * coherence_factor(t, sc), abs=1e-12)

    def test_lossless_weights_have_constant_modulus(self):
        # gamma = 0: stage evolution only rotates labels and phases weights
        sc = margin_scenario(alpha=1.0, beta=1.0, g=0.0, q=0.0)
        state = BS.from_scenario(sc)
        state = BranchState(_mix(state.terms))
        before = _weight_moduli(state)
        for stage in (StageKind.CAVITY1, StageKind.FREE1, StageKind.CAVITY2):
            state = branch_step(state, stage, 21.0, sc)
            assert _weight_moduli(state) == pytest.approx(before, abs=1e-12)

    def test_branch_count_bounded_by_four(self):
        sc = margin_scenario(alpha=0.5, beta=0.5, g=0.05, q=0.05)
        traj = branch_run(sc, [sc.total_time()])
        assert traj.states[0].branch_count() <= 4

    def test_rejects_foreign_initial_state(self):
        sc = Scenario()
        with pytest.raises(UnsupportedInitialState):
            branch_run(sc, [0.0], initial=initial_density(sc))

    def test_densify_is_physical(self):
        sc = margin_scenario(alpha=1.0, beta=0.5, g=0.5, q=0.5)
        traj = branch_run(sc, [70.0])
        dm = traj.dense_state(0)
        dm.validate(check_positivity=True)

    def test_custom_branch_initial(self):
        sc = margin_scenario(alpha=0.5, beta=0.5, g=0.1, q=0.1)
        traj = branch_run(sc, [20.0], initial=BS.from_scenario(sc))
        assert isinstance(traj.states[0], BranchState)


def _record_gap(recs_a, recs_b) -> float:
    return max(
        max(
            abs(a.c_af1 - b.c_af1),
            abs(a.c_af2 - b.c_af2),
            abs(a.c_f1f2 - b.c_f1f2),
            abs(a.purity - b.purity),
        )
        for a, b in zip(recs_a, recs_b)
    )


def _three_label_state(rng) -> BranchState:
    """Three coherent labels per field: an equal mix of a superposition and a mixture.

    The superposition c_k |s_k, a_k, b_k> carries dyads between different labels;
    the mixture of products sigma_k (x) |a_k><a_k| (x) |b_k><b_k| with full-rank
    atomic states keeps every pair state full rank, away from the square-root
    sensitivity of the concurrence at rank-deficient states.
    """
    atoms = (0, 1, 0)
    c = rng.normal(size=3) + 1j * rng.normal(size=3)
    a = 0.6 * (rng.normal(size=3) + 1j * rng.normal(size=3))
    b = 0.6 * (rng.normal(size=3) + 1j * rng.normal(size=3))
    norm = sum(
        np.conj(c[k]) * c[m] * coherent_overlap(a[k], a[m]) * coherent_overlap(b[k], b[m])
        for k in range(3)
        for m in range(3)
        if atoms[k] == atoms[m]
    ).real
    terms: dict = {(s, sp): [] for s in (0, 1) for sp in (0, 1)}
    for k in range(3):
        for m in range(3):
            w = 0.5 * c[k] * np.conj(c[m]) / norm
            terms[(atoms[k], atoms[m])].append([w, a[k], a[m], b[k], b[m]])
    for k in range(3):
        sigma = random_density(rng, 2) / 6.0
        for (s, sp), lst in terms.items():
            lst.append([sigma[s, sp], a[k], a[k], b[k], b[k]])
    return BranchState(terms)


class TestBranchRecords:
    """Branch records come from the label-basis compression, never from Fock space."""

    @pytest.mark.parametrize(
        "kw",
        [
            dict(alpha=1.0, beta=0.5, phi=1.1),
            dict(alpha=0.5, beta=1.0, frame="lab"),
            dict(alpha=1.0, beta=1.0, phi=4.0, frame="lab"),
        ],
    )
    def test_matches_dense_records(self, rng, kw):
        g, q = rng.uniform(0.0, 1.0, 2)
        sc = margin_scenario(g=float(g), q=float(q), **kw)
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, sc.total_time(), 6))])
        branch = branch_run(sc, times).records()
        dense = run_scenario(sc, times).records()
        assert _record_gap(branch, dense) < 1e-9

    def test_start_has_one_label_per_field(self):
        sc = margin_scenario(alpha=1.0, beta=0.5, g=0.2, q=0.2, phi=0.7)
        traj = branch_run(sc, [0.0])
        small = branch_compress(traj.states[0])
        assert small.layout.dims == (2, 2, 2)
        rec = traj.records()[0]
        assert rec.c_af1 == pytest.approx(0.0, abs=1e-12)
        assert rec.purity == pytest.approx(1.0, abs=1e-12)

    def test_three_label_initial_matches_dense(self, rng):
        sc = margin_scenario(alpha=1.0, beta=1.0, g=0.3, q=0.6)
        bs = _three_label_state(rng)
        assert branch_compress(bs).layout.dims == (2, 3, 3)
        times = np.linspace(0.0, sc.total_time(), 7)
        branch = branch_run(sc, times, initial=bs).records()
        dense = run_scenario(sc, times, initial=branch_densify(bs, sc)).records()
        assert _record_gap(branch, dense) < 1e-9

    def test_compressed_state_is_physical(self, rng):
        traj = branch_run(margin_scenario(alpha=1.0, beta=0.5, g=0.5, q=0.5), [70.0])
        small = branch_compress(traj.states[0])
        small.validate(check_positivity=True)
        big = branch_compress(_three_label_state(rng))
        big.validate(check_positivity=True)

    def test_records_ignore_fock_cutoffs(self):
        # densifying at n = 1 raises TruncationTooSmall; the label basis needs no cutoff
        sc = Scenario().variant(alpha=0.5, beta=0.5, g=0.05, q=0.05)
        times = np.linspace(0.0, sc.total_time(), 13)
        tiny = branch_run(sc.variant(n1=1, n2=1), times).records()
        default = branch_run(sc, times).records()
        assert _record_gap(tiny, default) < 1e-12
        assert max(abs(a.discarded_weight - b.discarded_weight) for a, b in zip(tiny, default)) < 1e-12


class TestFrames:
    def test_concurrences_frame_invariant(self):
        sc = margin_scenario(alpha=1.0, beta=0.5, g=0.05, q=0.5, extra=5)
        times = np.linspace(0.0, sc.total_time(), 5)
        rot = run_scenario(sc, times).records()
        lab = run_scenario(sc.variant(frame="lab"), times).records()
        for a, b in zip(rot, lab):
            assert abs(a.c_af1 - b.c_af1) < 1e-8
            assert abs(a.c_af2 - b.c_af2) < 1e-8
            assert abs(a.c_f1f2 - b.c_f1f2) < 1e-8

    def test_lab_branch_matches_lab_dense(self):
        sc = margin_scenario(alpha=1.0, beta=0.5, g=0.05, q=0.2, frame="lab")
        times = [25.0, 55.0, 90.0]
        dense = run_scenario(sc, times)
        branch = branch_run(sc, times)
        for i in range(3):
            assert trace_distance(dense.states[i], branch.dense_state(i)) < 1e-8


class TestDispersiveValidity:
    def test_vacuum_ratio_four_no_warning(self, recwarn):
        sc = Scenario().variant(alpha=0.0, beta=0.0)
        report = dispersive_validity(sc)
        assert report.ratios[0] == pytest.approx(4.0)
        assert report.ok
        assert not recwarn.list

    def test_large_field_warns(self):
        sc = Scenario().variant(alpha=math.sqrt(15.0), n1=60)
        with pytest.warns(UserWarning):
            report = dispersive_validity(sc)
        assert report.ratios[0] == pytest.approx(1.0)
        assert not report.ok

    def test_zero_coupling_is_infinite_ratio(self, recwarn):
        sc = Scenario().variant(Omega_1=0.0, Omega_2=0.0, omega_1=0.0, omega_2=0.0)
        report = dispersive_validity(sc)
        assert math.isinf(report.ratios[0])
        assert not recwarn.list


class TestScenarioValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            Scenario().variant(gamma_1=-1.0).validate()

    def test_inconsistent_dispersive_frequency_rejected(self):
        with pytest.raises(ConfigError):
            Scenario().variant(omega_1=5e-3).validate()

    def test_wrong_duration_count_rejected(self):
        with pytest.raises(ConfigError):
            Scenario().variant(stage_durations=(1.0, 2.0)).validate()

    def test_default_truncation_rule(self):
        assert default_truncation(0.5) == 11
        assert default_truncation(1.0) == 15
        assert default_truncation(2.0) == 26
