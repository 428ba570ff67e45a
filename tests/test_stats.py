import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from gcindex.errors import (
    DegenerateAbscissaError,
    EmptyIntersectionError,
    LengthMismatchError,
    NonPositiveExpectedError,
    ZeroVarianceError,
)
from gcindex.model import RankTable
from gcindex.ranking import rank_table_from_indicator
from gcindex.stats import (
    Decision,
    chi_square_isf,
    chi_square_sf,
    chi_square_statistic,
    chi_square_test,
    ols_fit,
    pearson,
    rank_homogeneity_test,
)
from util import sf_by_integration

try:
    from scipy import stats as sps
    HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    HAVE_SCIPY = False


class TestChiSquareStatistic:
    def test_zero_iff_perfect_agreement(self):
        assert chi_square_statistic([3.0, 7.0, 2.0], [3.0, 7.0, 2.0]) == 0.0
        assert chi_square_statistic([2.0, 4.0], [3.0, 3.0]) > 0.0

    def test_hand_values(self):
        assert chi_square_statistic([2.0, 4.0], [3.0, 3.0]) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert chi_square_statistic([0.0, 6.0], [3.0, 3.0]) == pytest.approx(6.0, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            chi_square_statistic([1.0, 2.0], [1.0])

    def test_nonpositive_expected(self):
        with pytest.raises(NonPositiveExpectedError):
            chi_square_statistic([1.0, 2.0], [1.0, 0.0])

    def test_nonnegative(self):
        rng = Random(5)
        for _ in range(50):
            n = rng.randint(2, 8)
            o = [rng.uniform(0, 10) for _ in range(n)]
            e = [rng.uniform(0.1, 10) for _ in range(n)]
            assert chi_square_statistic(o, e) >= 0.0


class TestSurvivalFunction:
    def test_full_mass_above_zero(self):
        for df in (1, 2, 5, 9, 30):
            assert chi_square_sf(0.0, df) == 1.0

    @pytest.mark.parametrize("x", [1.0, 2.0, 5.0])
    def test_closed_form_df2(self, x):
        assert chi_square_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), abs=1e-14)

    def test_table_p_value(self):
        # the published test run: statistic 1.459644 at 9 degrees of freedom
        assert chi_square_sf(1.459644, 9) == pytest.approx(0.997435, abs=1e-5)

    def test_strictly_decreasing(self):
        for df in (1, 3, 9, 17):
            xs = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 60.0]
            values = [chi_square_sf(x, df) for x in xs]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_vanishes_in_the_tail(self):
        assert chi_square_sf(500.0, 3) < 1e-90

    @pytest.mark.parametrize("df", range(1, 13))
    def test_matches_quadrature_oracle(self, df):
        for x in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 35.0):
            assert chi_square_sf(x, df) == pytest.approx(
                sf_by_integration(x, df), abs=1e-8
            )

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy unavailable")
    def test_matches_scipy(self):
        for df in (1, 2, 4, 9, 15, 30):
            for x in (0.1, 1.0, 1.459644, 8.0, 40.0):
                assert chi_square_sf(x, df) == pytest.approx(
                    float(sps.chi2.sf(x, df)), rel=1e-10, abs=1e-13
                )


class TestInverseSurvival:
    def test_table_critical_value(self):
        assert chi_square_isf(0.05, 9) == pytest.approx(16.91898, abs=1e-4)

    def test_closed_form_df2(self):
        assert chi_square_isf(0.05, 2) == pytest.approx(-2.0 * math.log(0.05), abs=1e-6)

    def test_roundtrip_grid(self):
        for alpha in (0.001, 0.01, 0.05, 0.5, 0.95):
            for df in range(1, 31):
                x = chi_square_isf(alpha, df)
                assert abs(chi_square_sf(x, df) - alpha) <= 1e-9

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 5, 7, 10, 15, 22, 30, 39, 50, 75, 100, 200,
                                    500, 1000])
    def test_documented_tolerance_from_far_tail_to_near_one(self, df):
        # |sf(x) - alpha| <= 1e-10 as documented, over every decade of alpha
        # and its complement: near alpha = 1 sf is steep at small x, so a
        # narrow bracket in x alone does not meet it
        alphas = [10.0 ** -k for k in range(12, 0, -1)] + [0.05, 0.5, 0.95]
        alphas += [1.0 - 10.0 ** -k for k in range(1, 10)]
        for alpha in alphas:
            x = chi_square_isf(alpha, df)
            assert abs(chi_square_sf(x, df) - alpha) <= 1e-10, (alpha, df, x)

    @pytest.mark.parametrize("alpha,df,text", [
        (0.88, 1000, "947.723130"), (0.05, 39, "54.572228"), (0.01, 1000, "1106.968994"),
        (1e-12, 5, "65.238636"), (0.999, 3, "0.024298"), (0.5, 1, "0.454936"),
    ])
    def test_six_decimals_of_the_exact_root(self, alpha, df, text):
        # roots from a 40-digit bisection; the first is 947.7231304992725,
        # 5e-10 below a rounding edge, where a stop at a bracket of
        # 1e-12 * x prints 947.723131
        assert "%.6f" % chi_square_isf(alpha, df) == text

    def test_inverse_of_sf_at_sampled_points(self):
        # Sample inside each distribution's body; in the far tails sf is
        # flat to double precision and no inverse can pin x down.
        for df in (1, 4, 9, 22):
            for factor in (0.5, 1.0, 1.5, 2.5):
                x = factor * df
                alpha = chi_square_sf(x, df)
                assert chi_square_isf(alpha, df) == pytest.approx(x, abs=1e-8)

    def test_rejects_bad_alpha(self):
        for alpha in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                chi_square_isf(alpha, 9)

    def test_decision_rejects_bad_alpha_with_the_isf_message(self):
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\), got 1\.5$"):
            chi_square_test(3.0, 2, alpha=1.5)


class TestRankHomogeneity:
    def test_identical_rankings(self):
        table = RankTable(year=2005, ranks={"A": 1, "B": 2, "C": 3})
        cur = RankTable(year=2006, ranks={"A": 1, "B": 2, "C": 3})
        result = rank_homogeneity_test(table, cur, alpha=0.05)
        assert result.statistic == 0.0
        assert result.decision is Decision.DO_NOT_REJECT
        assert result.p_value == 1.0

    def test_three_country_reversal(self):
        prev = RankTable(year=2005, ranks={"A": 1, "B": 2, "C": 3})
        cur = RankTable(year=2006, ranks={"A": 3, "B": 2, "C": 1})
        result = rank_homogeneity_test(prev, cur, alpha=0.05)
        assert result.statistic == pytest.approx(16.0 / 3.0, abs=1e-12)
        assert result.df == 2
        assert result.critical_value == pytest.approx(chi_square_isf(0.05, 2), abs=1e-12)
        assert result.decision is Decision.DO_NOT_REJECT  # 5.33 < 5.99

    def test_decision_consistency(self):
        prev = RankTable(year=2005, ranks={"A": 1, "B": 2, "C": 3})
        cur = RankTable(year=2006, ranks={"A": 30, "B": 2, "C": 1})
        result = rank_homogeneity_test(prev, cur, alpha=0.05)
        assert result.decision is Decision.REJECT
        assert (result.statistic > result.critical_value) == (result.p_value < result.alpha)

    def test_regional_fixture_default_design(self, balkans):
        panel, _ = balkans
        prev = rank_table_from_indicator(panel, 2005, "GCI_RANK")
        cur = rank_table_from_indicator(panel, 2006, "GCI_RANK")
        result = rank_homogeneity_test(prev, cur, alpha=0.05)
        assert result.df == 9
        assert result.critical_value == pytest.approx(16.91898, abs=1e-4)
        assert result.decision is Decision.DO_NOT_REJECT

    def test_regional_fixture_two_way_design(self, balkans):
        # The spreadsheet-style 2 x n layout reproduces the published run.
        panel, _ = balkans
        prev = rank_table_from_indicator(panel, 2005, "GCI_RANK")
        cur = rank_table_from_indicator(panel, 2006, "GCI_RANK")
        result = rank_homogeneity_test(prev, cur, alpha=0.05, design="two-way")
        assert result.statistic == pytest.approx(1.459644, abs=5e-7)
        assert result.p_value == pytest.approx(0.997435, abs=1e-5)
        assert result.critical_value == pytest.approx(16.91898, abs=1e-4)
        assert result.decision is Decision.DO_NOT_REJECT

    def test_needs_two_common_countries(self):
        prev = RankTable(year=2005, ranks={"A": 1, "B": 2})
        cur = RankTable(year=2006, ranks={"B": 1, "C": 2})
        with pytest.raises(EmptyIntersectionError):
            rank_homogeneity_test(prev, cur)

    def test_unknown_design_rejected(self):
        prev = RankTable(year=2005, ranks={"A": 1, "B": 2})
        cur = RankTable(year=2006, ranks={"A": 1, "B": 2})
        with pytest.raises(ValueError):
            rank_homogeneity_test(prev, cur, design="bogus")


class TestOlsFit:
    def test_exact_line(self):
        fit = ols_fit([(2003, 1.0), (2004, 2.0), (2005, 3.0)])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0 - 2003.0, abs=1e-9)

    def test_constant_series(self):
        fit = ols_fit([(2003, 4.2), (2004, 4.2), (2005, 4.2)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_abscissa(self):
        with pytest.raises(DegenerateAbscissaError):
            ols_fit([(2003, 1.0), (2003, 2.0)])
        with pytest.raises(DegenerateAbscissaError):
            ols_fit([(2003, 1.0)])

    def test_matches_normal_equations_oracle(self):
        # Exact-rational 2x2 normal-equation solve; immune to the
        # cancellation that plagues raw-year sums in floats.
        rng = Random(314159)
        for _ in range(100):
            xs = [2003.0 + i for i in range(4)]
            ys = [rng.uniform(1.0, 7.0) for _ in range(4)]
            fit = ols_fit(list(zip(xs, ys)))
            n = Fraction(4)
            sx = sum(Fraction(x) for x in xs)
            sxx = sum(Fraction(x) ** 2 for x in xs)
            sy = sum(Fraction(y) for y in ys)
            sxy = sum(Fraction(x) * Fraction(y) for x, y in zip(xs, ys))
            slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
            intercept = (sy - slope * sx) / n
            assert fit.slope == pytest.approx(float(slope), abs=1e-10)
            assert fit.intercept == pytest.approx(float(intercept), abs=1e-7)

    def test_residuals_orthogonal_to_years(self):
        rng = Random(2718)
        for _ in range(25):
            pts = [(2000.0 + i, rng.uniform(1.0, 7.0)) for i in range(6)]
            fit = ols_fit(pts)
            residuals = [y - fit.predict(x) for x, y in pts]
            dot = sum(r * x for r, (x, _) in zip(residuals, pts))
            scale = math.sqrt(sum(y * y for _, y in pts))
            assert abs(dot) <= 1e-9 * max(scale, 1.0) * 2000.0

    def test_year_shift_moves_intercept_not_slope(self):
        pts = [(2003, 3.1), (2004, 3.7), (2005, 3.2), (2006, 4.0)]
        base = ols_fit(pts)
        shifted = ols_fit([(x + 10, y) for x, y in pts])
        assert shifted.slope == pytest.approx(base.slope, abs=1e-12)
        assert shifted.intercept == pytest.approx(base.intercept - 10 * base.slope, abs=1e-8)


class TestPearson:
    def test_perfect_correlation(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson(xs, xs).r == pytest.approx(1.0, abs=1e-12)
        assert pearson(xs, [-v for v in xs]).r == pytest.approx(-1.0, abs=1e-12)

    def test_positive_affine_invariance(self):
        xs = [1.0, 2.5, 2.7, 5.0]
        ys = [3.0 * x + 0.7 for x in xs]
        assert pearson(xs, ys).r == pytest.approx(1.0, abs=1e-12)

    @given(
        xs=st.lists(st.floats(-10, 10), min_size=3, max_size=8, unique=True).filter(
            lambda v: max(v) - min(v) > 1e-3
        ),
        a=st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-3),
        b=st.floats(-5.0, 5.0),
    )
    def test_sign_flip_property(self, xs, a, b):
        ys = [0.5 * x + ((-1) ** i) for i, x in enumerate(xs)]
        base = pearson(xs, ys).r
        scaled = pearson([a * x + b for x in xs], ys).r
        assert scaled == pytest.approx(math.copysign(1.0, a) * base, abs=1e-9)

    def test_bounded_by_one(self):
        rng = Random(11)
        for _ in range(200):
            n = rng.randint(2, 10)
            xs = [rng.uniform(-5, 5) for _ in range(n)]
            ys = [rng.uniform(-5, 5) for _ in range(n)]
            try:
                assert abs(pearson(xs, ys).r) <= 1.0 + 1e-12
            except ZeroVarianceError:
                pass

    def test_errors(self):
        with pytest.raises(LengthMismatchError):
            pearson([1.0, 2.0], [1.0])
        with pytest.raises(LengthMismatchError):
            pearson([1.0], [1.0])
        with pytest.raises(ZeroVarianceError):
            pearson([1.0, 1.0], [1.0, 2.0])
