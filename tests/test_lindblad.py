import math

import numpy as np
import pytest

from cavsim import (
    IntegratorConfig,
    Scenario,
    StageKind,
    StepUnderflow,
    integrate,
    liouvillian_apply,
    mean_photon_number,
    rho_stage1,
    run_oracle,
    run_scenario,
    trace_distance,
)
from cavsim.evolution import STAGE_ORDER, initial_density
from cavsim.hilbert import DensityMatrix, coherent_vector, standard_layout

from conftest import margin_scenario, stage1_scenario


def coherent_field1_state(z: complex, n1: int, n2: int, gamma: float) -> tuple[Scenario, DensityMatrix]:
    sc = Scenario().variant(
        alpha=z, beta=0.0, n1=n1, n2=n2, gamma_1=gamma, q=0.0,
        omega_1=0.0, omega_2=0.0, Omega_1=None, Omega_2=None, ramsey_angle=0.0,
        phi=0.0,
    )
    return sc, initial_density(sc)


class TestLiouvillianApply:
    def test_zero_generator(self):
        sc = Scenario().variant(
            g=0.0, q=0.0, omega_1=0.0, omega_2=0.0, Omega_1=None, Omega_2=None,
            alpha=0.5, beta=0.5, ramsey_angle=0.0,
        )
        rho = initial_density(sc)
        out = liouvillian_apply(rho, StageKind.FREE1, sc)
        assert np.max(np.abs(out)) < 1e-15

    def test_vacuum_stationary(self):
        sc = Scenario().variant(alpha=0.0, beta=0.0, g=0.9, q=0.4, n1=5, n2=5)
        rho = initial_density(sc)
        out = liouvillian_apply(rho, StageKind.FREE1, sc)
        assert np.max(np.abs(out)) < 1e-14

    def test_traceless(self):
        sc = margin_scenario(alpha=1.0, beta=0.5, g=0.5, q=0.5, extra=4)
        rho = initial_density(sc)
        for stage in (StageKind.CAVITY1, StageKind.RAMSEY, StageKind.CAVITY2):
            out = liouvillian_apply(rho, stage, sc)
            assert abs(np.trace(out)) < 1e-12

    def test_preserves_hermiticity(self):
        sc = margin_scenario(alpha=1.0, beta=0.5, g=0.3, q=0.2, extra=4)
        rho = initial_density(sc)
        out = liouvillian_apply(rho, StageKind.CAVITY1, sc)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_coherent_amplitude_decay_rate(self):
        # d<a>/dt = -gamma <a> on a coherent state with H = 0
        gamma, z, n = 0.07, 0.9 + 0.4j, 20
        sc, rho = coherent_field1_state(z, n, 1, gamma)
        drho = liouvillian_apply(rho, StageKind.FREE1, sc)
        a_full = np.kron(
            np.eye(2), np.kron(np.diag(np.sqrt(np.arange(1, n + 1)), 1), np.eye(2))
        )
        da_dt = np.trace(a_full @ drho)
        assert da_dt == pytest.approx(-gamma * z, abs=1e-9)


class TestIntegrate:
    def test_zero_generator_constant(self):
        sc = Scenario().variant(
            g=0.0, q=0.0, omega_1=0.0, omega_2=0.0, Omega_1=None, Omega_2=None,
            alpha=0.5, beta=0.5, n1=10, n2=10, ramsey_angle=0.0,
        )
        rho0 = initial_density(sc)
        traj = integrate(rho0, [(StageKind.FREE1, 10.0)], [0.0, 5.0, 10.0], sc)
        for st in traj.states:
            assert trace_distance(st, rho0) < 1e-12

    def test_pure_damping_mean_photon(self):
        # alpha = 1, gamma*tau = 0.5 -> <n> = e^{-1}
        gamma = 0.05
        tau = 0.5 / gamma
        sc, rho0 = coherent_field1_state(1.0, 18, 1, gamma)
        traj = integrate(rho0, [(StageKind.FREE1, tau)], [tau], sc)
        assert mean_photon_number(traj.states[0], "field1") == pytest.approx(
            math.exp(-1.0), abs=1e-6
        )

    def test_matches_analytic_stage1(self):
        sc = stage1_scenario(alpha=1.0, g=0.05, t1=40.0, extra=5)
        rho0 = initial_density(sc)
        cfg = IntegratorConfig(abs_tol=1e-9)
        traj = integrate(rho0, [(StageKind.CAVITY1, 40.0)], [20.0, 40.0], sc, cfg)
        for t, st in zip(traj.times, traj.states):
            assert trace_distance(st, rho_stage1(float(t), sc)) < 1e-7

    def test_fourth_order_convergence(self):
        # fixed-step runs at h and h/2 against the closed form: error ratio >= 8
        # (generous truncation margin keeps the closed-form reference floor
        # far below the integrator error)
        sc = stage1_scenario(alpha=0.5, g=0.5, t1=40.0, extra=10)
        rho0 = initial_density(sc)
        ref = rho_stage1(40.0, sc)

        def end_error(h):
            cfg = IntegratorConfig(initial_step=h, abs_tol=np.inf, max_step=h)
            traj = integrate(rho0, [(StageKind.CAVITY1, 40.0)], [40.0], sc, cfg)
            return trace_distance(traj.states[0], ref)

        e1, e2 = end_error(4.0), end_error(2.0)
        assert e1 / e2 >= 8.0

    def test_trace_conserved_before_renormalization(self):
        sc = stage1_scenario(alpha=1.0, g=0.5, t1=50.0, extra=0)
        rho0 = initial_density(sc)
        traj = integrate(rho0, [(StageKind.CAVITY1, 50.0)], [50.0], sc)
        assert abs(traj.states[0].trace() - 1.0) < 1e-8

    def test_positivity_within_relaxed_tolerance(self):
        sc = margin_scenario(alpha=0.5, beta=0.5, g=0.5, q=0.5, extra=0)
        traj = run_oracle(sc, [30.0, 90.0], IntegratorConfig(abs_tol=1e-9))
        for st in traj.states:
            lam_min = float(np.linalg.eigvalsh(st.data)[0])
            assert lam_min >= -1e-7

    def test_step_underflow(self):
        sc = stage1_scenario(alpha=0.5, g=0.5, t1=10.0, extra=0)
        rho0 = initial_density(sc)
        cfg = IntegratorConfig(initial_step=0.1, abs_tol=1e-30, max_step=0.1)
        with pytest.raises(StepUnderflow):
            integrate(rho0, [(StageKind.CAVITY1, 10.0)], [10.0], sc, cfg)

    def test_grid_validation(self):
        sc = Scenario().variant(n1=10, n2=10, alpha=0.4, beta=0.4)
        rho0 = initial_density(sc)
        with pytest.raises(ValueError):
            integrate(rho0, [(StageKind.FREE1, 5.0)], [6.0], sc)
        with pytest.raises(ValueError):
            integrate(rho0, [(StageKind.FREE1, 5.0)], [], sc)
        with pytest.raises(ValueError, match="finite"):
            integrate(rho0, [(StageKind.FREE1, 5.0)], [0.0, math.nan], sc)
        with pytest.raises(ValueError, match="finite"):
            run_oracle(sc, [0.0, math.nan])


class TestOracleVsDense:
    def test_five_stage_certification_spot(self):
        sc = margin_scenario(alpha=0.5, beta=0.5, g=0.05, q=0.05, extra=2)
        times = [45.0, 90.0]
        dense = run_scenario(sc, times)
        oracle = run_oracle(sc, times, IntegratorConfig(abs_tol=1e-10))
        for i in range(len(times)):
            assert trace_distance(dense.states[i], oracle.states[i]) < 1e-6

    def test_instant_ramsey_and_boundary_samples(self):
        # zero-duration Ramsey entry, and a sample on every stage boundary
        sc = Scenario().variant(
            alpha=0.5, beta=0.5, g=0.3, q=0.2, phi=0.9, n1=8, n2=8,
            stage_durations=(8.0, 3.0, 0.0, 3.0, 8.0),
        )
        times = np.sort(np.concatenate([sc.stage_times(), [2.5, 9.5, 17.0]]))
        plan = list(zip(STAGE_ORDER, sc.stage_durations))
        oracle = integrate(initial_density(sc), plan, times, sc, IntegratorConfig(abs_tol=1e-10))
        dense = run_scenario(sc, times)
        for a, b in zip(oracle.states, dense.states):
            assert trace_distance(a, b) < 1e-6

    def test_oracle_always_rotating(self):
        cfg = IntegratorConfig(abs_tol=1e-9)
        sc = margin_scenario(alpha=0.5, beta=0.5, g=0.1, q=0.1, extra=0, frame="lab")
        rot = margin_scenario(alpha=0.5, beta=0.5, g=0.1, q=0.1, extra=0)
        a = run_oracle(sc, [20.0], cfg).states[0]
        b = run_oracle(rot, [20.0], cfg).states[0]
        assert trace_distance(a, b) < 1e-12
