"""Feature extraction: frozen examples, oracle agreement, and invariants."""
import math
import tracemalloc

import numpy as np
import pytest

from ssfx import SegmentationMask, ValidationError
from ssfx.features import COLUMNS, FeatureSubset, extract_ssf, select_subset
from ssfx.mask import MAX_SIDE

from oracles import naive_ssf, random_mask_grid


def mask_of(rows, L, void=0):
    return SegmentationMask(data=np.asarray(rows, dtype=np.int64), num_categories=L,
                            void_value=void)


class TestFrozenExamples:
    def test_two_by_two_counts(self):
        m = mask_of([[1, 1], [2, 1]], L=2)
        assert extract_ssf(m).raw_counts.tolist() == [3, 1]

    def test_two_by_two_normalized_counts(self):
        m = mask_of([[1, 1], [2, 1]], L=2)
        assert extract_ssf(m).pc.tolist() == [0.75, 0.25]

    def test_two_by_two_means(self):
        m = mask_of([[1, 1], [2, 1]], L=2)
        out = extract_ssf(m)
        # category 2 occupies the single pixel at column 1, row 2
        assert [out.mu_x[1], out.mu_y[1]] == [0.5, 1.0]
        np.testing.assert_allclose([out.mu_x[0], out.mu_y[0]], [5 / 6, 2 / 3], rtol=0, atol=1e-9)

    def test_two_by_two_stds(self):
        m = mask_of([[1, 1], [2, 1]], L=2)
        out = extract_ssf(m)
        expected = math.sqrt(2.0 / 9.0) / 2.0
        np.testing.assert_allclose([out.sigma_x[0], out.sigma_y[0]], [expected, expected],
                                   rtol=0, atol=1e-9)
        assert [out.sigma_x[1], out.sigma_y[1]] == [0.0, 0.0]

    def test_one_pixel_mask_closed_form(self):
        out = extract_ssf(mask_of([[1]], L=2))
        assert out.values.tolist() == [[1.0, 1.0, 1.0, 0.0, 0.0], [0.0] * 5]
        assert out.raw_counts.tolist() == [1, 0]

    def test_two_by_two_full_matrix(self):
        m = mask_of([[1, 1], [2, 1]], L=2)
        got = extract_ssf(m).values
        s = math.sqrt(2.0 / 9.0) / 2.0
        expected = np.array([
            [0.75, 5 / 6, 2 / 3, s, s],
            [0.25, 0.5, 1.0, 0.0, 0.0],
        ])
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)

    def test_uniform_mask_closed_form(self):
        m = mask_of(np.ones((224, 224), dtype=np.int64), L=1)
        got = extract_ssf(m).values[0]
        sigma = math.sqrt((224**2 - 1) / 12.0) / 224.0
        expected = [1.0, 225 / 448, 225 / 448, sigma, sigma]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_all_void_mask_is_all_zero(self):
        m = mask_of(np.zeros((7, 9), dtype=np.int64), L=4)
        out = extract_ssf(m)
        assert out.values.shape == (4, 5)
        assert not out.values.any()
        assert not out.raw_counts.any()

    def test_single_pixel_category_has_zero_std(self):
        grid = np.zeros((5, 5), dtype=np.int64)
        grid[2, 3] = 1
        out = extract_ssf(mask_of(grid, L=1)).values[0]
        assert out[3] == 0.0 and out[4] == 0.0
        assert out[1] == pytest.approx(4 / 5)   # column 4 of 5
        assert out[2] == pytest.approx(3 / 5)   # row 3 of 5


class TestOracleAgreement:
    def test_matches_naive_loops_on_random_masks(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            L = int(rng.integers(1, 12))
            h = int(rng.integers(1, 40))
            w = int(rng.integers(1, 40))
            grid = random_mask_grid(rng, L, h, w, void_fraction=float(rng.uniform(0, 0.4)))
            got = extract_ssf(mask_of(grid, L)).values
            expected = naive_ssf(grid, L, void_value=0)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)

    def test_matches_naive_loops_on_larger_masks(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            L = int(rng.integers(1, 9))
            h = int(rng.integers(2, 50))
            w = int(rng.integers(2, 50))
            grid = random_mask_grid(rng, L, h, w, 0.2)
            got = extract_ssf(mask_of(grid, L)).values
            np.testing.assert_allclose(got, naive_ssf(grid, L, void_value=0), rtol=0, atol=1e-9)

    def test_pc_counts_void_in_the_area(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            L = int(rng.integers(1, 9))
            h = int(rng.integers(1, 30))
            w = int(rng.integers(1, 30))
            grid = random_mask_grid(rng, L, h, w, float(rng.uniform(0, 0.6)))
            out = extract_ssf(mask_of(grid, L))
            assert int(out.raw_counts.sum()) == np.count_nonzero(grid)
            np.testing.assert_allclose(out.pc, naive_ssf(grid, L, void_value=0)[:, 0],
                                       rtol=0, atol=1e-9)

    @pytest.mark.parametrize("shape", [(1, MAX_SIDE), (MAX_SIDE, 1)], ids=["row", "column"])
    def test_matches_naive_loops_at_max_side(self, shape):
        rng = np.random.default_rng(13)
        grid = random_mask_grid(rng, 6, *shape, void_fraction=0.2)
        got = extract_ssf(mask_of(grid, 6)).values
        np.testing.assert_allclose(got, naive_ssf(grid, 6, void_value=0), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("width", [2, 3])
    def test_narrow_category_far_from_origin(self, width):
        # The last `width` columns of a 1 x MAX_SIDE mask: sigma_x is
        # sqrt((width^2 - 1) / 12) pixels, tiny beside mean positions near
        # MAX_SIDE, so a route through E[x^2] - E[x]^2 loses about half its digits.
        grid = np.zeros((1, MAX_SIDE), dtype=np.uint16)
        grid[0, -width:] = 1
        out = extract_ssf(mask_of(grid, 1)).values[0]
        assert out[1] == (MAX_SIDE - (width - 1) / 2) / MAX_SIDE
        np.testing.assert_allclose(out[3], math.sqrt((width**2 - 1) / 12.0) / MAX_SIDE,
                                   rtol=1e-15, atol=0)
        assert out[4] == 0.0

    def test_nonzero_void_value_matches_default(self):
        rng = np.random.default_rng(3)
        grid = random_mask_grid(rng, 4, 20, 20, 0.3)
        remapped = np.where(grid == 0, 255, grid).astype(np.uint16)
        a = extract_ssf(mask_of(grid, 4, void=0)).values
        b = extract_ssf(mask_of(remapped, 4, void=255)).values
        np.testing.assert_array_equal(a, b)


class TestInvariants:
    def test_translation_shifts_mean_only(self):
        grid = np.zeros((16, 24), dtype=np.int64)
        grid[4:9, 2:7] = 1
        shifted = np.zeros_like(grid)
        shifted[4:9, 2 + 5 : 7 + 5] = 1
        a = extract_ssf(mask_of(grid, L=1)).values[0]
        b = extract_ssf(mask_of(shifted, L=1)).values[0]
        assert b[1] - a[1] == pytest.approx(5 / 24, abs=1e-12)
        for col in (0, 2, 3, 4):
            assert b[col] == pytest.approx(a[col], abs=1e-12)

    def test_horizontal_mirror_reflects_mean_x(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            L = int(rng.integers(1, 6))
            h = int(rng.integers(2, 30))
            w = int(rng.integers(2, 30))
            grid = random_mask_grid(rng, L, h, w, 0.2)
            a = extract_ssf(mask_of(grid, L)).values
            b = extract_ssf(mask_of(grid[:, ::-1], L)).values
            present = a[:, 0] > 0
            np.testing.assert_allclose(b[present, 1], (w + 1) / w - a[present, 1], atol=1e-12)
            for col in (0, 2, 3, 4):
                np.testing.assert_allclose(b[:, col], a[:, col], atol=1e-12)

    def test_pixel_replication_keeps_pc_and_nudges_mean_subpixel(self):
        rng = np.random.default_rng(23)
        grid = random_mask_grid(rng, 3, 12, 10, 0.25)
        base = extract_ssf(mask_of(grid, 3)).values
        for k in (2, 3, 5):
            big = np.repeat(np.repeat(grid, k, axis=0), k, axis=1)
            scaled = extract_ssf(mask_of(big, 3)).values
            present = base[:, 0] > 0
            np.testing.assert_array_equal(scaled[:, 0], base[:, 0])
            # replication moves each 1-based centroid by exactly (k-1)/(2*dim*k)
            np.testing.assert_allclose(scaled[present, 1], base[present, 1] - (k - 1) / (2 * 10 * k),
                                       atol=1e-12)
            np.testing.assert_allclose(scaled[present, 2], base[present, 2] - (k - 1) / (2 * 12 * k),
                                       atol=1e-12)

    def test_entries_bounded(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            L = int(rng.integers(1, 10))
            h = int(rng.integers(1, 40))
            w = int(rng.integers(1, 40))
            out = extract_ssf(mask_of(random_mask_grid(rng, L, h, w, 0.2), L)).values
            assert out.min() >= 0.0
            assert out.max() <= 1.0
            assert out[:, 3].max() <= 0.5
            assert out[:, 4].max() <= 0.5
            present = out[:, 0] > 0
            assert (out[present, 1] >= 1.0 / w).all()
            assert (out[present, 2] >= 1.0 / h).all()

    def test_deterministic_bytes(self):
        rng = np.random.default_rng(31)
        grid = random_mask_grid(rng, 5, 33, 21, 0.1)
        a = extract_ssf(mask_of(grid, 5)).values
        b = extract_ssf(mask_of(grid.copy(), 5)).values
        assert a.tobytes() == b.tobytes()


    @pytest.mark.parametrize("void", [0, 255])
    def test_peak_memory_is_the_per_pixel_bound_of_the_max_side_comment(self, void):
        # The bound stated beside MAX_SIDE: an 8-byte index per pixel, plus
        # the remapped grid when void is nonzero; everything else scales
        # with (h+w)*(L+1): measured at 2.2 x 8*(h+w)*(L+1) on the square
        # masks and 2.7 x on the wide one.
        L = 40
        for h, w in ((1000, 1000), (1024, 1024), (512, 2048)):
            grid = np.random.default_rng(3).integers(1, L + 1, size=(h, w)).astype(np.uint16)
            grid[::7] = void
            mask = SegmentationMask(grid, L, void)
            per_pixel = 8 + (grid.itemsize if void else 0)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                extract_ssf(mask)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            bound = per_pixel * h * w + 3 * 8 * (h + w) * (L + 1)
            assert per_pixel * h * w <= peak < bound, (h, w, peak)


class TestValidation:
    def test_out_of_range_value_names_pixel(self):
        grid = np.array([[1, 1], [7, 1]])
        with pytest.raises(ValidationError, match=r"value 7 at pixel index 2 \(row 1, col 0\)"):
            mask_of(grid, L=2)

    def test_void_inside_category_range_rejected(self):
        with pytest.raises(ValidationError, match="void_value 2"):
            mask_of([[1, 2]], L=3, void=2)

    def test_void_none_forbids_unlabeled(self):
        with pytest.raises(ValidationError, match="value 0"):
            mask_of([[0, 1]], L=2, void=None)

    def test_oversized_mask_rejected(self):
        with pytest.raises(ValidationError, match="exceed"):
            SegmentationMask(data=np.ones((1, 20000), dtype=np.uint8), num_categories=1)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            SegmentationMask(data=np.ones((0, 4), dtype=np.uint8), num_categories=1)


class TestSubset:
    def test_parse_and_columns(self):
        s = FeatureSubset.parse("pc,sd")
        assert s.num_columns == 3
        assert s.column_indices() == (0, 3, 4)
        assert s.label() == "PC&SD"
        assert s.spec_string() == "pc,sd"

    def test_column_counts_all_combinations(self):
        assert FeatureSubset(True, False, False).num_columns == 1
        assert FeatureSubset(False, True, False).num_columns == 2
        assert FeatureSubset(False, False, True).num_columns == 2
        assert FeatureSubset(True, True, True).num_columns == 5

    def test_selection_preserves_canonical_order(self):
        m = mask_of([[1, 1], [2, 1]], L=2)
        matrix = extract_ssf(m)
        sel = select_subset(matrix, FeatureSubset.parse("ap,sd"))
        np.testing.assert_array_equal(sel, matrix.values[:, 1:5])

    def test_empty_subset_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            FeatureSubset(False, False, False)

    def test_unknown_group_rejected(self):
        with pytest.raises(ValidationError, match="unknown feature group"):
            FeatureSubset.parse("pc,std")

    def test_column_names_stable(self):
        assert COLUMNS == ("pc", "mu_x", "mu_y", "sigma_x", "sigma_y")
