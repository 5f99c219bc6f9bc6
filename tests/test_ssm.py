import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from liquid_ssm.errors import DimensionError, DiscretizationError
from liquid_ssm.ssm import (
    DiscreteSystem,
    DplrSystem,
    _discretize_dense,
    _legs_core,
    discretize_bilinear,
    hippo_legs,
    init_dt_schedule,
    legs_init_vectors,
    nplr_decompose,
)

from helpers import PROPERTY, random_stable_system, rel_linf


class TestHippoLegs:
    def test_n1(self):
        assert hippo_legs(1) == pytest.approx(np.array([[-1.0]]))

    def test_n3_closed_form(self):
        want = np.array(
            [
                [-1.0, 0.0, 0.0],
                [-math.sqrt(3.0), -2.0, 0.0],
                [-math.sqrt(5.0), -math.sqrt(15.0), -3.0],
            ]
        )
        assert hippo_legs(3) == pytest.approx(want, abs=0.0)

    def test_upper_triangle_zero(self):
        assert hippo_legs(2)[0, 1] == 0.0

    def test_invalid_dimension(self):
        with pytest.raises(DimensionError):
            hippo_legs(0)

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 64])
    def test_lower_triangular_negative_diagonal(self, n):
        a = hippo_legs(n)
        assert np.all(np.triu(a, 1) == 0.0)
        assert np.all(np.diag(a) < 0.0)

    def test_entrywise_closed_form(self):
        # independent evaluation of the printed formula
        n = 7
        a = hippo_legs(n)
        for i in range(n):
            for k in range(n):
                if i > k:
                    want = -math.sqrt(2 * i + 1) * math.sqrt(2 * k + 1)
                elif i == k:
                    want = -(i + 1)
                else:
                    want = 0.0
                assert a[i, k] == pytest.approx(want, rel=1e-15)


class TestLegsVectors:
    def test_n2(self):
        b, p = legs_init_vectors(2)
        assert b == pytest.approx(np.array([1.0, math.sqrt(3.0)]))
        assert p == pytest.approx(np.array([math.sqrt(0.5), math.sqrt(1.5)]))

    def test_n1(self):
        b, p = legs_init_vectors(1)
        assert b == pytest.approx(np.array([1.0]))
        assert p == pytest.approx(np.array([math.sqrt(0.5)]))

    @pytest.mark.parametrize("n", [1, 4, 33])
    def test_zero_imaginary_parts(self, n):
        b, p = legs_init_vectors(n)
        assert np.all(b.imag == 0.0)
        assert np.all(p.imag == 0.0)

    def test_invalid_dimension(self):
        with pytest.raises(DimensionError):
            legs_init_vectors(0)


class TestNplrDecompose:
    @pytest.mark.parametrize("n", [2, 8, 64, 256])
    def test_skew_plus_half_identity(self, n):
        b0, p0 = legs_init_vectors(n)
        s = hippo_legs(n) + np.outer(p0.real, p0.real)
        assert np.linalg.norm(s + s.T + np.eye(n)) < 1e-10

    def test_n2_skew_entries(self):
        b0, p0 = legs_init_vectors(2)
        s = hippo_legs(2) + np.outer(p0.real, p0.real)
        assert np.diag(s) == pytest.approx([-0.5, -0.5])
        assert s[0, 1] == pytest.approx(math.sqrt(0.75))
        assert s[1, 0] == pytest.approx(-math.sqrt(0.75))

    def test_n4_eigenvalue_real_parts(self):
        sys = nplr_decompose(4)
        assert np.max(np.abs(sys.lam.real + 0.5)) < 1e-10

    def test_eigenvalues_sorted_by_imag(self):
        sys = nplr_decompose(9)
        assert np.all(np.diff(sys.lam.imag) >= -1e-12)

    @pytest.mark.parametrize("n", [2, 4, 16, 64])
    def test_reconstruction(self, n):
        sys = nplr_decompose(n)
        v = _legs_core(n)[3]
        rec = v @ sys.a_dense() @ v.conj().T
        assert np.linalg.norm(rec - hippo_legs(n)) < 1e-8

    @pytest.mark.parametrize("n", [2, 4, 16, 64])
    def test_spectrum_left_half_plane(self, n):
        sys = nplr_decompose(n)
        assert np.max(np.linalg.eigvals(sys.a_dense()).real) <= 1e-8

    def test_deterministic(self):
        a = nplr_decompose(8, seed=3)
        b = nplr_decompose(8, seed=3)
        assert np.array_equal(a.lam, b.lam)
        assert np.array_equal(a.c, b.c)

    def test_seed_changes_only_c(self):
        sys = nplr_decompose(8, seed=0)
        redrawn = nplr_decompose(8, seed=99)
        assert np.array_equal(sys.lam, redrawn.lam)
        assert np.array_equal(sys.p, redrawn.p)
        assert np.array_equal(sys.b, redrawn.b)
        assert not np.array_equal(sys.c, redrawn.c)


class TestDiscretizeBilinear:
    def test_scalar_hand_computed(self):
        sys = DplrSystem(lam=[-1.0], p=[0.0], b=[1.0], c=[1.0])
        d = discretize_bilinear(sys, 1.0)
        assert d.a_bar[0, 0] == pytest.approx(1.0 / 3.0)
        assert d.b_bar[0] == pytest.approx(2.0 / 3.0)

    def test_zero_matrix(self):
        sys = DplrSystem(lam=[0.0, 0.0], p=[0.0, 0.0], b=[1.0, -2.0], c=[1.0, 1.0])
        d = discretize_bilinear(sys, 0.37)
        assert d.a_bar == pytest.approx(np.eye(2))
        assert d.b_bar == pytest.approx(0.37 * np.array([1.0, -2.0]))

    def test_small_dt_taylor(self):
        rng = np.random.default_rng(5)
        sys = random_stable_system(rng, 6)
        a = sys.a_dense()
        for dt in (1e-3, 1e-4):
            d = discretize_bilinear(sys, dt)
            assert np.max(np.abs(d.a_bar - (np.eye(6) + dt * a))) < 2.0 * dt**2 * np.linalg.norm(a, 2) ** 2

    @pytest.mark.parametrize("seed", range(5))
    def test_left_half_plane_maps_into_unit_disk(self, seed):
        rng = np.random.default_rng(seed)
        sys = random_stable_system(rng, 12)
        dt = float(rng.uniform(1e-3, 1.0))
        d = discretize_bilinear(sys, dt)
        assert np.max(np.abs(np.linalg.eigvals(d.a_bar))) <= 1.0 + 1e-8

    def test_invalid_dt(self):
        sys = nplr_decompose(2)
        with pytest.raises(DimensionError):
            discretize_bilinear(sys, 0.0)

    def test_singular_solve(self):
        # lam = 2/dt makes (1 - dt/2 lam) exactly 0 on the diagonal-only system
        sys = DplrSystem(lam=[2.0 / 0.5], p=[0.0], b=[1.0], c=[1.0])
        with pytest.raises(DiscretizationError):
            discretize_bilinear(sys, 0.5)

    def test_overflowing_step(self):
        # dt/2 A overflows: one typed error, and no numpy warning (the suite makes warnings errors)
        with pytest.raises(DiscretizationError):
            discretize_bilinear(nplr_decompose(8), 1e308)

    @PROPERTY
    @given(
        legs=st.booleans(),
        n=st.integers(1, 256),
        log_dt=st.floats(math.log(1e-300), math.log(1e300)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_solve(self, legs, n, log_dt, seed):
        # the Sherman-Morrison step against one LU solve of [I + dt/2 A | dt B], at steps from 1e-300 to 1e300
        sys = nplr_decompose(n, seed) if legs else random_stable_system(np.random.default_rng(seed), n)
        dt = math.exp(log_dt)
        fast, dense = discretize_bilinear(sys, dt), _discretize_dense(sys, dt)
        assert rel_linf(fast.a_bar, dense.a_bar) < 1e-10
        assert rel_linf(fast.b_bar, dense.b_bar) < 1e-10
        assert fast.c_bar is sys.c

    @pytest.mark.parametrize(
        "sys, dt",
        [
            (nplr_decompose(8), 1e308),  # h lam overflows
            (DplrSystem(lam=[-1.0], p=[1e5], b=[1.0], c=[1.0]), 1e300),  # h |p|^2 overflows, h lam does not
            (DplrSystem(lam=[2.0 / 0.5], p=[0.0], b=[1.0], c=[1.0]), 0.5),  # singular diagonal
            (DplrSystem(lam=[3.0, -1.0], p=[1.0, 0.0], b=[1.0, 1.0], c=[1.0, 1.0]), 1.0),  # singular M, regular D
        ],
    )
    def test_errors_match_dense_solve(self, sys, dt):
        for discretize in (discretize_bilinear, _discretize_dense):
            with pytest.raises(DiscretizationError):
                discretize(sys, dt)


class TestInitDtSchedule:
    def test_degenerate_range(self):
        dts = init_dt_schedule(1, dt_min=0.1, dt_max=0.1)
        assert dts == pytest.approx([0.1])

    def test_deterministic(self):
        a = init_dt_schedule(4, dt_min=1e-3, seed=11)
        b = init_dt_schedule(4, dt_min=1e-3, seed=11)
        assert np.array_equal(a, b)

    def test_default_dt_min_from_length(self):
        # the 1/L default draws exactly what an explicit dt_min = 1/L draws
        dts = init_dt_schedule(8, seq_length=2048)
        assert np.array_equal(dts, init_dt_schedule(8, dt_min=1.0 / 2048.0, dt_max=0.2))

    def test_within_bounds(self):
        dts = init_dt_schedule(64, dt_min=1e-3, dt_max=0.2, seed=0)
        assert np.all(dts >= 1e-3)
        assert np.all(dts <= 0.2)

    def test_invalid_ranges(self):
        with pytest.raises(DimensionError):
            init_dt_schedule(4, dt_min=0.0)
        with pytest.raises(DimensionError):
            init_dt_schedule(4, dt_min=0.5, dt_max=0.2)
        with pytest.raises(DimensionError):
            init_dt_schedule(4)  # neither dt_min nor seq_length


class TestDplrSystemValidation:
    def test_mismatched_lengths(self):
        with pytest.raises(DimensionError):
            DplrSystem(lam=[1.0, 2.0], p=[0.0], b=[1.0, 1.0], c=[1.0, 1.0])

    def test_non_finite(self):
        with pytest.raises(DimensionError):
            DplrSystem(lam=[np.nan], p=[0.0], b=[1.0], c=[1.0])

    def test_empty(self):
        # an empty system fails typed at construction, before any kernel path sees it
        with pytest.raises(DimensionError):
            DplrSystem(lam=[], p=[], b=[], c=[])

    def test_discrete_shapes(self):
        with pytest.raises(DimensionError):
            DiscreteSystem(a_bar=np.eye(3), b_bar=np.ones(2), c_bar=np.ones(2))
