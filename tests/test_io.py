"""Mask and feature file formats: round trips and malformed-input errors."""
import numpy as np
import pytest

from ssfx import SegmentationMask, extract_ssf
from ssfx.io import (
    FormatError,
    load_mask,
    read_feature_matrix,
    read_feature_vector,
    read_mask_container,
    read_pgm,
    save_mask,
    write_feature_csv,
    write_feature_matrix,
    write_feature_vector,
    write_mask_container,
    write_pgm,
)
from ssfx.mask import ValidationError


class TestPgm:
    def test_round_trip(self, tmp_path):
        grid = np.arange(12, dtype=np.uint16).reshape(3, 4) % 5
        p = tmp_path / "m.pgm"
        write_pgm(p, grid)
        np.testing.assert_array_equal(read_pgm(p), grid)

    def test_comments_in_header(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n# a comment\n2 2\n# another\n255\n" + bytes([1, 2, 3, 4]))
        np.testing.assert_array_equal(read_pgm(p), [[1, 2], [3, 4]])

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P2\n2 2\n255\n1 2 3 4\n")
        with pytest.raises(FormatError, match="missing P5 magic"):
            read_pgm(p)

    def test_truncated_raster(self, tmp_path):
        p = tmp_path / "m.pgm"
        for raster, found in ((bytes(7), 7), (b"", 0)):
            p.write_bytes(b"P5\n4 4\n255\n" + raster)
            with pytest.raises(FormatError) as failed:
                read_pgm(p)
            assert str(failed.value) == f"{p}: expected 16 raster bytes, found {found}"
        p.write_bytes(b"P5\n4 4\n255")  # no separator byte either
        with pytest.raises(FormatError, match="found 0$"):
            read_pgm(p)

    def test_bytes_after_the_raster_are_ignored(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n2 1\n255\n" + bytes([3, 4, 5, 6]))
        grid = read_pgm(p)
        assert grid.tolist() == [[3, 4]] and grid.dtype == np.uint16
        assert grid.flags.writeable and grid.flags.owndata

    def test_maxval_over_255_rejected(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FormatError, match="maxval"):
            read_pgm(p)

    def test_write_rejects_wide_values(self, tmp_path):
        with pytest.raises(ValidationError, match="<= 255"):
            write_pgm(tmp_path / "m.pgm", np.array([[300]]))


class TestMaskContainer:
    def test_round_trip(self, tmp_path):
        grid = np.arange(30, dtype=np.uint16).reshape(5, 6) * 100
        p = tmp_path / "m.ssfm"
        write_mask_container(p, grid)
        np.testing.assert_array_equal(read_mask_container(p), grid)

    def test_header_is_16_bytes(self, tmp_path):
        p = tmp_path / "m.ssfm"
        write_mask_container(p, np.zeros((2, 3), dtype=np.uint16))
        raw = p.read_bytes()
        assert len(raw) == 16 + 2 * 3 * 2
        assert raw[:4] == b"SSFM"
        assert int.from_bytes(raw[4:6], "little") == 1   # version
        assert int.from_bytes(raw[8:12], "little") == 2  # height
        assert int.from_bytes(raw[12:16], "little") == 3  # width

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.ssfm"
        p.write_bytes(b"XXXX" + bytes(12))
        with pytest.raises(FormatError, match="bad magic"):
            read_mask_container(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "m.ssfm"
        write_mask_container(p, np.zeros((4, 4), dtype=np.uint16))
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(FormatError) as failed:
            read_mask_container(p)
        assert str(failed.value) == f"{p}: expected 32 payload bytes, found 29"

    def test_grid_is_a_writable_copy(self, tmp_path):
        p = tmp_path / "m.ssfm"
        write_mask_container(p, np.array([[1, 2], [3, 4]], dtype=np.uint16))
        grid = read_mask_container(p)
        assert grid.dtype == np.uint16 and grid.flags.writeable and grid.flags.owndata

    def test_wrong_version(self, tmp_path):
        p = tmp_path / "m.ssfm"
        write_mask_container(p, np.zeros((1, 1), dtype=np.uint16))
        raw = bytearray(p.read_bytes())
        raw[4] = 9
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            read_mask_container(p)


class TestFeatureContainer:
    def test_matrix_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.standard_normal((7, 5))
        p = tmp_path / "f.ssff"
        write_feature_matrix(p, values)
        got = read_feature_matrix(p)
        assert got.tobytes() == values.tobytes()

    def test_vector_round_trip(self, tmp_path):
        vec = np.array([0.1, -2.5, 3e-17, 1e300])
        p = tmp_path / "v.ssff"
        write_feature_vector(p, vec)
        np.testing.assert_array_equal(read_feature_vector(p), vec)

    def test_non_finite_rejected_on_write(self, tmp_path):
        with pytest.raises(ValidationError, match="finite"):
            write_feature_matrix(tmp_path / "f.ssff", np.array([[np.nan]]))

    def test_matrix_where_vector_expected(self, tmp_path):
        p = tmp_path / "f.ssff"
        write_feature_matrix(p, np.zeros((2, 3)))
        with pytest.raises(FormatError, match="1 x n"):
            read_feature_vector(p)

    def test_mask_magic_rejected_as_features(self, tmp_path):
        p = tmp_path / "m.ssfm"
        write_mask_container(p, np.zeros((1, 1), dtype=np.uint16))
        with pytest.raises(FormatError, match="bad magic"):
            read_feature_matrix(p)


class TestCsv:
    def test_header_and_precision(self, tmp_path):
        m = SegmentationMask(data=np.array([[1, 1], [2, 1]], dtype=np.uint8), num_categories=2)
        matrix = extract_ssf(m)
        p = tmp_path / "f.csv"
        write_feature_csv(p, matrix)
        lines = p.read_text().splitlines()
        assert lines[0] == "category,pc,mu_x,mu_y,sigma_x,sigma_y"
        assert len(lines) == 3
        # 17 significant digits give exact f64 round trips
        parsed = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]])
        assert parsed.tobytes() == matrix.values.tobytes()


class TestLoadMask:
    def test_sniffs_pgm(self, tmp_path):
        p = tmp_path / "weird.bin"
        write_pgm(p, np.array([[1, 2], [2, 1]], dtype=np.uint8))
        mask = load_mask(p, num_categories=2)
        assert isinstance(mask, SegmentationMask)
        assert mask.data.tolist() == [[1, 2], [2, 1]]

    def test_sniffs_container(self, tmp_path):
        p = tmp_path / "weird.dat"
        write_mask_container(p, np.array([[0, 1]], dtype=np.uint16))
        mask = load_mask(p, num_categories=1)
        assert mask.data.tolist() == [[0, 1]]

    def test_unknown_format(self, tmp_path):
        p = tmp_path / "junk"
        p.write_bytes(b"\x00\x01\x02\x03rubbish")
        with pytest.raises(FormatError, match="unrecognized mask format"):
            load_mask(p, num_categories=3)

    def test_missing_file(self, tmp_path):
        (tmp_path / "file").write_bytes(b"")
        # absent, and a path that runs through a regular file
        for p in (tmp_path / "absent.pgm", tmp_path / "file" / "m.pgm"):
            with pytest.raises(FileNotFoundError) as failed:
                load_mask(p, num_categories=3)
            assert str(failed.value) == f"mask file not found: {p}"

    def test_out_of_range_value_propagates(self, tmp_path):
        p = tmp_path / "m.pgm"
        write_pgm(p, np.array([[9]], dtype=np.uint8))
        with pytest.raises(ValidationError, match="value 9"):
            load_mask(p, num_categories=3)

    def test_save_mask_picks_format_by_extension(self, tmp_path):
        grid = np.array([[1, 0], [0, 1]], dtype=np.uint16)
        save_mask(tmp_path / "a.pgm", grid)
        save_mask(tmp_path / "a.ssfm", grid)
        assert (tmp_path / "a.pgm").read_bytes()[:2] == b"P5"
        assert (tmp_path / "a.ssfm").read_bytes()[:4] == b"SSFM"
