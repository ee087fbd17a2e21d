import math

import numpy as np
import pytest

from cavsim import (
    branch_amplitudes,
    coherence_factor,
    concurrence_stage1,
    partial_trace,
    rho_stage1,
    run_scenario,
    trace_distance,
    wootters_concurrence,
)
from cavsim.analytic import phase_space_rows, stage1_purity
from cavsim.entanglement import effective_two_qubit
from cavsim.hilbert import coherent_vector

from conftest import stage1_scenario


class TestBranchAmplitudes:
    def test_initial_labels(self):
        sc = stage1_scenario(alpha=0.8, g=0.3)
        ae, ag, b1 = branch_amplitudes(0.0, sc)
        assert ae == ag == pytest.approx(0.8)
        assert b1 == pytest.approx(0.5)

    def test_labels_coincide_at_half_period(self):
        # lossless labels meet again at omega_1 t = pi and the state separates
        sc = stage1_scenario(alpha=1.2, g=0.0)
        t = math.pi / sc.omega_1
        ae, ag, _ = branch_amplitudes(t, sc)
        assert ae == pytest.approx(ag, abs=1e-12)
        assert ae == pytest.approx(-1.2, abs=1e-10)
        assert concurrence_stage1(t, sc) < 1e-10

    def test_modulus_decay(self):
        sc = stage1_scenario(alpha=1.0, g=0.5)
        t = 123.0
        ae, ag, _ = branch_amplitudes(t, sc)
        assert abs(ae) == pytest.approx(math.exp(-sc.gamma_1 * t), abs=1e-12)
        assert abs(ag) == pytest.approx(abs(ae), abs=1e-14)

    def test_lab_frame_adds_cavity_phase(self):
        sc = stage1_scenario(alpha=1.0, g=0.1)
        lab = sc.variant(frame="lab")
        t = 40.0
        ae_rot, _, b_rot = branch_amplitudes(t, sc)
        ae_lab, _, b_lab = branch_amplitudes(t, lab)
        assert ae_lab == pytest.approx(ae_rot * np.exp(-1j * lab.omega_tilde(1) * t))
        assert b_lab == pytest.approx(b_rot * np.exp(-1j * lab.omega_tilde(2) * t))


class TestCoherenceFactor:
    def test_initial_value(self):
        sc = stage1_scenario(alpha=1.0, g=0.2, phi=0.7)
        x0 = coherence_factor(0.0, sc)
        assert x0 == pytest.approx(np.exp(-0.35j))
        assert abs(x0) == pytest.approx(1.0)

    def test_lossless_modulus_is_one(self):
        sc = stage1_scenario(alpha=2.0, g=0.0)
        for t in (50.0, 300.0, 999.0):
            assert abs(coherence_factor(t, sc)) == pytest.approx(1.0, abs=1e-12)

    def test_modulus_against_dense_coherence_block(self):
        # |x| equals the |e><g| block of the dense propagation up to the
        # coherent-branch overlap carried by the labels themselves
        sc = stage1_scenario(alpha=1.0, g=0.05).variant(n1=25, n2=12)
        t = 0.5 * math.pi / sc.omega_1
        dense = run_scenario(sc, [t]).states[0]
        d1 = sc.truncations()[0] + 1
        d2 = sc.truncations()[1] + 1
        block = dense.data.reshape(2, d1 * d2, 2, d1 * d2)[0, :, 1, :]
        ae, ag, b1 = branch_amplitudes(t, sc)
        ke = np.kron(coherent_vector(ae, d1 - 1), coherent_vector(b1, d2 - 1))
        kg = np.kron(coherent_vector(ag, d1 - 1), coherent_vector(b1, d2 - 1))
        x = 2.0 * np.vdot(ke, block @ kg)
        assert abs(x - coherence_factor(t, sc)) < 1e-8

    def test_small_rate_series_branch(self):
        # the z -> 0 series must join the generic expression smoothly
        sc_small = stage1_scenario(alpha=1.0).variant(gamma_1=1e-10, omega_1=1e-10)
        sc_near = stage1_scenario(alpha=1.0).variant(gamma_1=2e-9, omega_1=2e-9)
        x_small = coherence_factor(1.0, sc_small)
        x_near = coherence_factor(1.0, sc_near)
        assert abs(x_small - 1.0) < 1e-8
        assert abs(x_near - 1.0) < 1e-7


class TestRhoStage1:
    def test_initial_product_state(self):
        sc = stage1_scenario(alpha=0.7, g=0.4)
        from cavsim import initial_density

        assert trace_distance(rho_stage1(0.0, sc), initial_density(sc)) < 1e-12

    def test_lossless_stays_pure(self):
        sc = stage1_scenario(alpha=1.0, g=0.0)
        for t in (100.0, 700.0):
            assert rho_stage1(t, sc).purity() == pytest.approx(1.0, abs=1e-9)

    def test_matches_dense_step(self):
        sc = stage1_scenario(alpha=1.0, g=0.05)
        t = 30.0
        dense = run_scenario(sc, [t]).states[0]
        assert trace_distance(rho_stage1(t, sc), dense) < 1e-8

    def test_field2_factorizes_as_coherent_state(self):
        sc = stage1_scenario(alpha=1.0, g=0.5, q=0.2)
        t = 200.0
        red = partial_trace(rho_stage1(t, sc), ("field2",))
        _, _, b1 = branch_amplitudes(t, sc)
        n2 = sc.truncations()[1]
        cb = coherent_vector(b1, n2)
        assert np.allclose(red.data, np.outer(cb, cb.conj()), atol=1e-10)

    def test_purity_closed_form(self):
        sc = stage1_scenario(alpha=1.0, g=0.3)
        t = 150.0
        assert rho_stage1(t, sc).purity() == pytest.approx(stage1_purity(t, sc), abs=1e-9)


class TestConcurrenceStage1:
    def test_zero_at_start(self):
        assert concurrence_stage1(0.0, stage1_scenario()) == 0.0

    def test_lossless_quarter_period_closed_form(self):
        # gamma=0 closed form sqrt(1 - e^{-2|a|^2 (1 - cos 2 w t)})
        sc = stage1_scenario(alpha=1.0, g=0.0)
        t = 0.5 * math.pi / sc.omega_1
        expected = math.sqrt(1.0 - math.exp(-4.0))
        assert concurrence_stage1(t, sc) == pytest.approx(expected, abs=1e-12)

    def test_equals_wootters_of_reduction(self):
        grid = [(0.5, 0.0), (1.0, 0.05), (1.0, 0.5), (2.0, 1.0)]
        for alpha, g in grid:
            sc = stage1_scenario(alpha=alpha, g=g)
            for frac in (0.2, 0.5):
                t = frac * math.pi / sc.omega_1
                pair = partial_trace(rho_stage1(t, sc), ("atom", "field1"))
                red = effective_two_qubit(pair)
                assert red.discarded_weight < 1e-9
                assert wootters_concurrence(red.two_qubit_state) == pytest.approx(
                    concurrence_stage1(t, sc), abs=1e-6
                )

    def test_monotone_in_label_separation(self):
        # at fixed |x| (gamma = 0) concurrence grows with the branch separation
        sc = stage1_scenario(alpha=1.0, g=0.0)
        ts = np.linspace(0.0, 0.5 * math.pi / sc.omega_1, 12)
        cs = [concurrence_stage1(float(t), sc) for t in ts]
        seps = []
        for t in ts:
            ae, ag, _ = branch_amplitudes(float(t), sc)
            seps.append(abs(ae - ag))
        assert np.all(np.diff(seps) > 0)
        assert np.all(np.diff(cs) > 0)

    def test_decay_envelope_bound(self):
        # at the quarter/three-quarter period points |x| respects the
        # dominant-envelope bound exp(-|a|^2(1-e^{-2 g t})) e^{|a|^2 g/sqrt(g^2+w^2)}
        for gr in (0.05, 0.5, 1.0):
            sc = stage1_scenario(alpha=1.0, g=gr)
            for k in (1, 3):
                t = 0.5 * k * math.pi / sc.omega_1
                bound = math.exp(
                    -abs(sc.alpha) ** 2 * (1.0 - math.exp(-2.0 * sc.gamma_1 * t))
                ) * math.exp(
                    abs(sc.alpha) ** 2
                    * sc.gamma_1
                    / math.hypot(sc.gamma_1, sc.omega_1)
                )
                assert abs(coherence_factor(t, sc)) <= bound * (1 + 1e-12)


class TestSnapshotsAndPhaseSpace:
    def test_closed_forms_are_bounded(self):
        sc = stage1_scenario(alpha=1.0, g=0.1)
        assert abs(coherence_factor(40.0, sc)) <= 1.0 + 1e-12
        assert 0.0 <= concurrence_stage1(40.0, sc) <= 1.0

    def test_phase_space_rows(self):
        sc = stage1_scenario(alpha=1.0, g=0.2)
        rows = phase_space_rows([0.0, 100.0], sc)
        assert rows[0][1:5] == pytest.approx((1.0, 0.0, 1.0, 0.0))
        assert rows[0][5] == pytest.approx(0.0)
        t = 100.0
        ae, ag, _ = branch_amplitudes(t, sc)
        assert rows[1][1] == pytest.approx(ae.real)
        assert rows[1][5] == pytest.approx(abs(ae - ag))

    def test_phase_space_ignores_lab_frame(self):
        sc = stage1_scenario(alpha=1.0, g=0.2)
        rows_rot = phase_space_rows([50.0], sc)
        rows_lab = phase_space_rows([50.0], sc.variant(frame="lab"))
        assert rows_rot == rows_lab
