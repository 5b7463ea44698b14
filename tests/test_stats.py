"""Fisher transform, grand-mean z-tests, repeated-measures F, and BH-FDR."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special  # the reference only: spnkit computes its p-values without it

import spnkit as sk
from spnkit.errors import ValidationError
from spnkit.stats import _f_tail

import oracles

GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


class TestFisherZ:
    def test_zero_maps_to_zero(self):
        assert sk.fisher_z(0.0) == 0.0

    def test_half_log_three(self):
        # independent evaluation of 0.5 * ln((1 + 0.5)/(1 - 0.5))
        assert sk.fisher_z(0.5) == pytest.approx(0.5 * math.log(3.0), abs=1e-4)

    def test_odd_function(self):
        rng = np.random.default_rng(42)
        r = rng.uniform(-0.99, 0.99, 200)
        np.testing.assert_allclose(sk.fisher_z(-r), -sk.fisher_z(r), atol=1e-15)

    def test_strictly_monotone(self):
        r = np.linspace(-0.995, 0.995, 400)
        assert np.all(np.diff(sk.fisher_z(r)) > 0)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        r = rng.uniform(-0.999, 0.999, 500)
        np.testing.assert_allclose(sk.fisher_z_inverse(sk.fisher_z(r)), r, atol=1e-12)

    @pytest.mark.parametrize("bad", [1.0, -1.0, 1.5, -2.0])
    def test_domain_error(self, bad):
        with pytest.raises(ValidationError):
            sk.fisher_z(bad)


class TestGrandMeanZTest:
    """One-column families: ``x[:, None]`` is a single hypothesis."""

    def test_mean_equal_to_grand_mean(self):
        statistic, p, sign = sk.grand_mean_z_test(np.array([0.3, 0.3, 0.3])[:, None], 0.3, 1.0)
        assert statistic.tolist() == [0.0]
        assert p.tolist() == [1.0]
        assert sign.tolist() == [0]

    def test_unit_shift_with_four_samples(self):
        statistic, p, sign = sk.grand_mean_z_test(np.ones(4)[:, None], 0.0, 1.0)
        assert statistic[0] == pytest.approx(2.0)
        assert p[0] == pytest.approx(oracles.normal_two_sided_p(2.0), abs=1e-12)
        assert p[0] == pytest.approx(0.0455, abs=1e-4)
        assert sign.tolist() == [1]

    def test_more_samples_shrink_p(self):
        _, small, _ = sk.grand_mean_z_test(np.full(4, 0.5)[:, None], 0.0, 1.0)
        _, large, _ = sk.grand_mean_z_test(np.full(8, 0.5)[:, None], 0.0, 1.0)
        assert large[0] < small[0]

    def test_negative_effect_sign(self):
        _, _, sign = sk.grand_mean_z_test(np.array([-0.5, -0.4])[:, None], 0.0, 1.0)
        assert sign.tolist() == [-1]

    @pytest.mark.parametrize("sd", [0.0, -1.0, math.nan])
    def test_invalid_sd(self, sd):
        with pytest.raises(ValidationError) as err:
            sk.grand_mean_z_test(np.array([0.1, 0.2])[:, None], 0.0, sd)
        assert str(err.value) == f"grand_sd must be positive, got {sd!r}"

    def test_needs_two_values(self):
        with pytest.raises(ValidationError) as err:
            sk.grand_mean_z_test(np.array([0.1])[:, None], 0.0, 1.0)
        assert str(err.value) == (
            "grand_mean_z_test needs an (n, H) array with n >= 2, got shape (1, 1)")

    def test_one_dimensional_sample_is_refused(self):
        with pytest.raises(ValidationError) as err:
            sk.grand_mean_z_test(np.array([0.1, 0.2, 0.3]), 0.0, 1.0)
        assert str(err.value) == (
            "grand_mean_z_test needs an (n, H) array with n >= 2, got shape (3,)")


def fit_one(table):
    """The repeated-measures fit of one n x J table, as a one-table family."""
    return sk.repeated_measures_fit(np.asarray(table, dtype=float)[:, :, None])


class TestRepeatedMeasuresFit:
    """One-table families: ``table[:, :, None]`` is a single hypothesis."""

    def test_identical_columns(self):
        rng = np.random.default_rng(0)
        col = rng.normal(size=5)
        fit = fit_one(np.column_stack([col, col, col]))
        assert fit.f_statistic.tolist() == [0.0]
        assert fit.p_value.tolist() == [1.0]
        assert fit.trend_sign.tolist() == [0]

    @pytest.mark.parametrize("shape", [(20, 4), (3, 2)])
    @pytest.mark.parametrize("r", [0.0, 0.1, 0.2, 0.3, 0.45, 0.6])
    def test_constant_table_is_flat_and_degenerate(self, shape, r):
        # rounding leaves the means a few ulp off the entries; that is no effect
        fit = fit_one(np.full(shape, np.arctanh(r)))
        assert fit.f_statistic.tolist() == [0.0]
        assert fit.p_value.tolist() == [1.0]
        assert fit.trend_sign.tolist() == [0]
        assert fit.degenerate.tolist() == [True]

    def test_noise_free_effect_is_degenerate(self):
        table = np.tile(np.array([0.0, 1.0]), (3, 1))
        fit = fit_one(table)
        assert fit.f_statistic.tolist() == [math.inf]
        assert fit.p_value.tolist() == [0.0]
        assert fit.trend_sign.tolist() == [1]
        assert fit.degenerate.tolist() == [True]

    def test_matches_sums_of_squares_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(3, 9))
            j = int(rng.integers(2, 6))
            table = rng.normal(size=(n, j))
            fit = fit_one(table)
            assert fit.f_statistic[0] == pytest.approx(oracles.rm_anova_f(table), abs=1e-10)
            assert fit.p_value[0] == pytest.approx(
                oracles.f_tail_p(fit.f_statistic[0], j - 1, (n - 1) * (j - 1)), abs=1e-12
            )

    def test_random_intercept_absorbs_subject_shift(self):
        rng = np.random.default_rng(7)
        table = rng.normal(size=(5, 3))
        shifted = table + rng.normal(size=(5, 1))
        a = fit_one(table)
        b = fit_one(shifted)
        assert b.f_statistic[0] == pytest.approx(a.f_statistic[0], abs=1e-10)

    def test_condition_permutation_keeps_f(self):
        rng = np.random.default_rng(8)
        table = rng.normal(size=(6, 4))
        perm = rng.permutation(4)
        a = fit_one(table)
        b = fit_one(table[:, perm])
        assert b.f_statistic[0] == pytest.approx(a.f_statistic[0], abs=1e-10)

    def test_reversing_conditions_flips_trend(self):
        rng = np.random.default_rng(9)
        table = rng.normal(size=(6, 4)) + np.linspace(0, 1, 4)
        a = fit_one(table)
        b = fit_one(table[:, ::-1])
        assert a.trend_sign[0] == -b.trend_sign[0] != 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_missing_cells_rejected(self, bad):
        table = np.array([[0.1, 0.2], [bad, 0.3]])
        with pytest.raises(ValidationError) as err:
            fit_one(table)
        assert str(err.value) == "unsupported design: table has missing or non-finite cells"

    @pytest.mark.parametrize("shape", [(1, 3), (3, 1)])
    def test_minimum_shape(self, shape):
        with pytest.raises(ValidationError) as err:
            fit_one(np.zeros(shape))
        assert str(err.value) == (
            f"need n >= 2 subjects and J >= 2 conditions, got {shape[0]} x {shape[1]}")

    @pytest.mark.parametrize("shape", [(4,), (3, 2)])
    def test_table_without_a_family_axis_is_refused(self, shape):
        with pytest.raises(ValidationError) as err:
            sk.repeated_measures_fit(np.zeros(shape))
        assert str(err.value) == (
            f"repeated_measures_fit needs an (n, J, H) array, got shape {shape}")


class TestBhFdr:
    def test_worked_example(self):
        # step-up thresholds at base rate .05 over 4 hypotheses:
        # 0.0125, 0.025, 0.0375, 0.05
        d = sk.bh_fdr([0.005, 0.013, 0.02, 0.8], 0.05)
        assert d.rejected.tolist() == [True, True, True, False]
        assert d.n_rejected == 3

    def test_all_ones_reject_none(self):
        d = sk.bh_fdr([1.0, 1.0, 1.0], 0.05)
        assert d.n_rejected == 0
        assert not d.rejected.any()

    def test_all_zeros_reject_all(self):
        d = sk.bh_fdr([0.0, 0.0, 0.0], 0.05)
        assert d.rejected.all()

    def test_empty_input(self):
        d = sk.bh_fdr([], 0.05)
        assert d.n_rejected == 0
        assert d.rejected.size == 0

    def test_matches_stepup_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            m = int(rng.integers(1, 50))
            p = np.round(rng.random(m), 3)  # rounding forces ties
            alpha = float(rng.uniform(0.01, 0.2))
            expected, k = oracles.bh_stepup(p.tolist(), alpha)
            d = sk.bh_fdr(p, alpha)
            assert d.rejected.tolist() == expected
            assert d.n_rejected == k

    def test_superset_of_bonferroni(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(2, 40))
            p = rng.random(m)
            alpha = 0.05
            bonferroni = p <= alpha / m
            d = sk.bh_fdr(p, alpha)
            assert np.all(d.rejected[bonferroni])

    def test_monotone_in_base_rate(self):
        rng = np.random.default_rng(4)
        p = rng.random(30)
        small = sk.bh_fdr(p, 0.01).rejected
        large = sk.bh_fdr(p, 0.10).rejected
        assert np.all(large[small])

    def test_rejections_are_a_prefix_of_order_statistics(self):
        rng = np.random.default_rng(5)
        p = np.round(rng.random(40), 2)
        d = sk.bh_fdr(p, 0.2)
        if d.n_rejected:
            cut = np.sort(p)[d.n_rejected - 1]
            assert np.array_equal(d.rejected, p <= cut)

    def test_validates_inputs(self):
        with pytest.raises(ValidationError):
            sk.bh_fdr([0.5, 1.5], 0.05)
        with pytest.raises(ValidationError):
            sk.bh_fdr([0.5], 0.0)

    def test_two_dimensional_p_values_are_refused(self):
        with pytest.raises(ValidationError) as err:
            sk.bh_fdr([[0.5, 0.1]], 0.05)
        assert str(err.value) == "p_values must be one-dimensional"


class TestUncorrected:
    def test_thresholds_pointwise(self):
        d = sk.uncorrected([0.005, 0.02, 0.5], 0.01)
        assert d.rejected.tolist() == [True, False, False]
        assert d.n_rejected == 1

    def test_alpha_must_lie_inside_the_unit_interval(self):
        with pytest.raises(ValidationError) as err:
            sk.uncorrected([0.5], 1.0)
        assert str(err.value) == "alpha must lie in (0, 1), got 1.0"


PAPER_DOF = (3, 57)
F_DOFS = [(1, 1), (1, 2), (2, 1), (1, 9), (9, 1), (4, 4), (3, 57), (5, 100), (1, 891),
          (9, 891), (19, 380), (2, 1000)]


def f_tail_rtol(d1, d2):
    return 1e-12 if (d1, d2) == PAPER_DOF else 1e-11


@pytest.fixture(scope="module")
def seed_one_study(tmp_path_factory):
    """The benchmark's seed-1 paper-scale study (20 x 4 x 112), loaded."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen
    try:
        spec.loader.exec_module(gen)
        study = gen.generate(tmp_path_factory.mktemp("seed1"), 1, "paper")
    finally:
        del sys.modules[spec.name]
    return sk.load_dataset(study.manifest), sk.load_node_signals(study.manifest)


class TestTailProbabilities:
    """p-values computed without scipy.special, held to scipy.special and to
    mpmath at a relative tolerance of 1e-12 for the normal tail and at the
    paper's (3, 57) degrees of freedom, and 1e-11 at every other (d1, d2),
    wherever p >= 1e-300."""

    def test_normal_tail_is_math_erfc_and_matches_scipy(self):
        z = np.geomspace(1e-8, 36.5, 300)
        values = np.tile(np.concatenate([-z[::-1], [0.0], z]), (4, 1)) / 2.0
        statistic, p, _ = sk.grand_mean_z_test(values, 0.0, 1.0)
        assert p.tolist() == [oracles.normal_two_sided_p(s) for s in statistic]
        np.testing.assert_allclose(p, special.erfc(np.abs(statistic) / math.sqrt(2.0)),
                                   rtol=1e-12, atol=0)
        assert p.max() == 1.0 and 1e-300 < p.min() < 1e-285

    @pytest.mark.parametrize("d1,d2", F_DOFS)
    def test_f_tail_matches_mpmath_and_scipy(self, d1, d2):
        f = np.geomspace(1e-8, 1e12, 400)
        p = _f_tail(d1, d2, f)
        reference = np.array([oracles.f_tail_p(v, d1, d2) for v in f])
        keep = reference >= 1e-300
        rtol = f_tail_rtol(d1, d2)
        np.testing.assert_allclose(p[keep], reference[keep], rtol=rtol, atol=0)
        np.testing.assert_allclose(p[keep], special.fdtrc(d1, d2, f[keep]), rtol=rtol, atol=0)
        assert p[0] > 0.999
        if d2 >= 57:
            assert reference[keep].min() < 1e-280

    def test_f_tail_at_zero_infinite_and_invalid_f(self):
        f = np.array([0.0, np.inf, np.nan, -1.0, 5e-324])
        p = _f_tail(3, 57, f)
        np.testing.assert_array_equal(p, [1.0, 0.0, np.nan, np.nan, 1.0])
        np.testing.assert_array_equal(p, special.fdtrc(3, 57, f))

    def test_one_table_gives_the_bits_of_its_family(self):
        rng = np.random.default_rng(81)
        tables = rng.normal(size=(20, 4, 50)) * rng.uniform(0.1, 3.0, 50)
        tables[:, 1:] += rng.uniform(0.0, 2.0, 50)
        family = sk.repeated_measures_fit(tables).p_value
        alone = [sk.repeated_measures_fit(tables[:, :, [h]]).p_value[0] for h in range(50)]
        assert family.tolist() == alone

    def test_flat_and_degenerate_tables_in_one_family(self):
        rng = np.random.default_rng(80)
        tables = rng.normal(size=(6, 4, 5))
        tables[:, :, 1] = rng.normal(size=(6, 1))  # identical columns: flat, zero residual
        tables[:, :, 3] = np.arange(4.0)  # noise-free effect: zero residual
        fits = sk.repeated_measures_fit(tables)
        assert fits.p_value[1] == 1.0 and fits.p_value[3] == 0.0
        assert fits.degenerate.tolist() == [False, True, False, True, False]
        live = [0, 2, 4]
        np.testing.assert_allclose(fits.p_value[live],
                                   special.fdtrc(3, 15, fits.f_statistic[live]),
                                   rtol=f_tail_rtol(3, 15), atol=0)

    def test_seed_one_families_match_scipy(self, seed_one_study):
        data, signals = seed_one_study
        for condition in range(data.n_conditions):
            result = sk.mean_spn(data, condition)
            expected = special.erfc(np.abs(result.statistic) / math.sqrt(2.0))
            np.testing.assert_allclose(result.p_value, expected, rtol=1e-12, atol=0)
            assert np.array_equal(result.correction.rejected, sk.bh_fdr(expected, 0.05).rejected)
        for result in (sk.differential_spn(data)[0], sk.node_differential_spn(signals)[0]):
            expected = special.fdtrc(*PAPER_DOF, result.statistic)
            np.testing.assert_allclose(result.p_value, expected, rtol=f_tail_rtol(*PAPER_DOF),
                                       atol=0)
            assert np.array_equal(result.correction.rejected, sk.bh_fdr(expected, 0.05).rejected)
