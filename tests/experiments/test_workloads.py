"""Workload-definition tests (fast paths; calibration smoke-tested)."""

import numpy as np
import pytest

from repro.experiments.workloads import (
    analytic_grid_workloads,
    array_variation_space,
    calibrate_read_spec,
    cell_variation_space,
    column_variation_space,
    make_array_read_limitstate,
    make_column_read_limitstate,
    make_disturb_limitstate,
    make_read_limitstate,
    make_senseamp_offset_limitstate,
    make_system_read_limitstate,
    make_write_limitstate,
    surrogate_workload,
)
from repro.highsigma.sigma import pfail_to_sigma


class TestAnalyticGrid:
    def test_grid_size(self):
        wl = analytic_grid_workloads(sigmas=(4.0,), dims=(6, 12))
        assert len(wl) == 4  # linear + quadratic per dim

    def test_exact_pfail_populated(self):
        for w in analytic_grid_workloads(sigmas=(4.0,), dims=(6,)):
            assert 0 < w.exact_pfail < 1e-3

    def test_fresh_limit_state_per_make(self):
        w = analytic_grid_workloads(sigmas=(4.0,), dims=(6,))[0]
        ls1, ls2 = w.make(), w.make()
        ls1.g(np.zeros(6))
        assert ls2.n_evals == 0

    def test_linear_workloads_at_exact_sigma(self):
        w = [x for x in analytic_grid_workloads(sigmas=(5.0,), dims=(6,))
             if x.name.startswith("linear")][0]
        assert float(pfail_to_sigma(w.exact_pfail)) == pytest.approx(5.0, abs=1e-9)


class TestVariationSpace:
    def test_six_vth_axes(self):
        space = cell_variation_space()
        assert space.dim == 6
        assert all(a.kind == "vth" for a in space.axes)

    def test_beta_doubles(self):
        assert cell_variation_space(include_beta=True).dim == 12

    def test_pass_gate_has_largest_sigma(self):
        # Smallest area (after the pull-up) -> among the largest sigmas;
        # check pg sigma exceeds pd sigma (pd is wider).
        space = cell_variation_space()
        sig = dict(zip(space.labels, space.sigma_vector()))
        assert sig["m_pg_l.vth"] > sig["m_pd_l.vth"]


class TestSramLimitStates:
    def test_read_limitstate_nominal_passes(self):
        ls = make_read_limitstate(spec=60e-12, n_steps=250)
        assert ls.g(np.zeros(6)) > 0

    def test_read_limitstate_fails_at_weak_passgate(self):
        ls = make_read_limitstate(spec=45e-12, n_steps=250)
        u = np.zeros(6)
        u[2] = 4.0
        assert ls.fails(u)

    def test_batch_matches_scalar(self):
        ls = make_read_limitstate(spec=50e-12, n_steps=250)
        rng = np.random.default_rng(0)
        ub = rng.normal(size=(4, 6))
        batch = ls.g_batch(ub)
        scalar = np.array([ls.g(u) for u in ub])
        np.testing.assert_allclose(batch, scalar, rtol=1e-9)

    def test_write_limitstate_nominal_passes(self):
        ls = make_write_limitstate(spec=80e-12, n_steps=250)
        assert ls.g(np.zeros(6)) > 0

    def test_disturb_limitstate_nominal_passes(self):
        ls = make_disturb_limitstate(spec=0.5, n_steps=250)
        assert ls.g(np.zeros(6)) > 0

    def test_beta_axes_supported(self):
        ls = make_read_limitstate(spec=50e-12, n_steps=250, include_beta=True)
        assert ls.dim == 12
        assert np.isfinite(ls.g(np.zeros(12)))


class TestCompiledWorkloads:
    def test_senseamp_offset_nominal_passes(self):
        ls = make_senseamp_offset_limitstate(spec=0.08)
        assert ls.dim == 4
        assert ls.g(np.zeros(4)) > 0

    def test_senseamp_offset_scalar_routes_through_batch(self):
        # fn=None: scalar metric() runs the batched evaluator as a
        # one-row batch and bills exactly one evaluation.
        ls = make_senseamp_offset_limitstate(spec=0.08)
        before = ls.n_evals
        value = ls.metric(np.array([2.0, 0.0, -2.0, 0.0]))
        assert ls.n_evals == before + 1
        assert value > 0  # weak left NMOS + strong right one hurts the read

    def test_senseamp_offset_fails_at_mismatch_corner(self):
        ls = make_senseamp_offset_limitstate(spec=0.08)
        u = np.array([4.0, -2.0, -4.0, 2.0])  # all axes push the offset up
        assert ls.g(u) < 0

    def test_system_read_latch_model_tracks_linear(self):
        spec = 60e-12
        rng = np.random.default_rng(0)
        u = rng.normal(0.0, 1.0, size=(6, 10))
        lin = make_system_read_limitstate(spec, n_steps=250, sa_model="linear")
        lat = make_system_read_limitstate(spec, n_steps=250, sa_model="latch")
        g_lin = lin.g_batch(u)
        g_lat = lat.g_batch(u)
        # The latch offset quantisation and regeneration nonlinearity
        # shift the required differential by millivolts at most, which
        # moves the access margin only slightly.
        np.testing.assert_allclose(g_lat, g_lin, rtol=0.15, atol=2e-12)

    def test_system_read_bad_sa_model_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            make_system_read_limitstate(60e-12, sa_model="cubic")


class TestColumnWorkload:
    """The dimension-scaling column workload on the compiled sparse path."""

    @pytest.fixture(scope="class")
    def ls(self):
        return make_column_read_limitstate(6e-11, n_leakers=2, n_steps=200)

    def test_dim_scales_with_leakers(self, ls):
        assert ls.dim == 18
        assert make_column_read_limitstate(6e-11, n_leakers=5, n_steps=64).dim == 36

    def test_variation_space_order_matches_column(self):
        from repro.sram.column import ColumnConfig, ReadColumn

        space = column_variation_space(n_leakers=2)
        column = ReadColumn(config=ColumnConfig(n_leakers=2))
        assert [a.device for a in space.axes] == column.all_device_names()

    def test_nominal_passes(self, ls):
        assert ls.g(np.zeros(ls.dim)) > 0

    def test_batch_matches_scalar(self, ls):
        rng = np.random.default_rng(7)
        ub = rng.normal(size=(3, ls.dim))
        np.testing.assert_allclose(
            ls.g_batch(ub), [ls.g(u) for u in ub], rtol=1e-9
        )

    def test_accessed_cell_axis_dominates(self, ls):
        # +3 sigma on the accessed pass gate (axis 2) must cost far more
        # margin than +3 sigma on a leaker's pull-up (axis 6).
        u_access, u_leak = np.zeros(ls.dim), np.zeros(ls.dim)
        u_access[2] = 3.0
        u_leak[6] = 3.0
        g0 = ls.g(np.zeros(ls.dim))
        assert ls.g(u_access) < ls.g(u_leak)
        assert ls.g(u_access) < g0

    def test_bad_leaker_data_rejected(self):
        with pytest.raises(ValueError, match="leaker_data"):
            make_column_read_limitstate(6e-11, n_leakers=2, leaker_data="typo")


class TestArrayWorkload:
    """The array-level dimension-scaling workload on the compiled slice."""

    @pytest.fixture(scope="class")
    def ls(self):
        return make_array_read_limitstate(
            6e-11, n_cols=2, n_leakers=2, n_steps=200
        )

    def test_dim_scales_with_cols_and_leakers(self, ls):
        assert ls.dim == 6 * 2 * 3
        assert make_array_read_limitstate(
            6e-11, n_cols=3, n_leakers=1, n_steps=64
        ).dim == 36

    def test_variation_space_order_matches_array(self):
        from repro.sram.array import ArrayConfig, ArraySlice

        space = array_variation_space(n_cols=2, n_leakers=2)
        arr = ArraySlice(config=ArrayConfig(n_cols=2, n_leakers=2))
        assert [a.device for a in space.axes] == arr.all_device_names()

    def test_nominal_passes(self, ls):
        assert ls.g(np.zeros(ls.dim)) > 0

    def test_batch_matches_scalar(self, ls):
        rng = np.random.default_rng(8)
        ub = rng.normal(size=(3, ls.dim))
        np.testing.assert_allclose(
            ls.g_batch(ub), [ls.g(u) for u in ub], rtol=1e-9
        )

    def test_selected_column_axis_dominates(self, ls):
        # +3 sigma on the selected column's accessed pass gate (axis 2)
        # must cost real margin; the same shift on the unselected
        # column's accessed pass gate (axis 20) must not — its bitlines
        # never reach the data lines.
        u_sel, u_unsel = np.zeros(ls.dim), np.zeros(ls.dim)
        u_sel[2] = 3.0
        u_unsel[18 + 2] = 3.0
        g0 = ls.g(np.zeros(ls.dim))
        assert ls.g(u_sel) < g0
        assert abs(ls.g(u_unsel) - g0) < 0.5 * (g0 - ls.g(u_sel))

    def test_cross_check_paths_agree(self):
        # 160 steps: on a 120-step grid the first sample's Newton solve
        # falls into a 2-cycle that never converges, and the access
        # metric refuses such a batch on every assembly/solver path.
        dense = make_array_read_limitstate(
            6e-11, n_cols=2, n_leakers=2, n_steps=160, assembly="dense"
        )
        blocked = make_array_read_limitstate(
            6e-11, n_cols=2, n_leakers=2, n_steps=160, solver="blocked"
        )
        u = np.random.default_rng(9).normal(size=(2, dense.dim))
        np.testing.assert_allclose(
            dense.g_batch(u), blocked.g_batch(u), rtol=1e-6
        )


class TestCalibration:
    def test_read_spec_placement(self):
        # Calibrate at 3.5 sigma and verify with a fresh MPFP search.
        from repro.highsigma.mpfp import MpfpSearch

        spec = calibrate_read_spec(sigma_target=3.5, n_steps=250)
        ls = make_read_limitstate(spec, n_steps=250)
        res = MpfpSearch(ls).run()
        assert res.beta == pytest.approx(3.5, abs=0.35)


class TestSurrogate:
    def test_placed_at_requested_sigma(self):
        w = surrogate_workload(sigma_target=4.0)
        assert float(pfail_to_sigma(w.exact_pfail)) == pytest.approx(4.0, abs=0.05)

    def test_dimension_parameter(self):
        assert surrogate_workload(4.0, dim=12).dim == 12
