import numpy as np
import pytest

from eelab.errors import ConfigError
from eelab.netpbm import (
    boundary_mask,
    label_gray_levels,
    read_pgm,
    write_label_pgm,
    write_overlay_ppm,
    write_pgm,
)
from eelab.swcut import Image, Labeling


class TestReadPgm:
    def test_p5_roundtrip(self, tmp_path):
        gray = np.arange(12).reshape(3, 4) * 20
        path = tmp_path / "img.pgm"
        write_pgm(path, gray)
        img = read_pgm(path)
        assert (img.width, img.height) == (4, 3)
        np.testing.assert_allclose(img.pixels, gray / 255.0, atol=1e-12)

    def test_p2_roundtrip(self, tmp_path):
        gray = np.array([[0, 128], [255, 64]])
        path = tmp_path / "img.pgm"
        write_pgm(path, gray, ascii_format=True)
        img = read_pgm(path)
        np.testing.assert_allclose(img.pixels, gray / 255.0, atol=1e-12)

    def test_comments_and_maxval_scaling(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P2\n# a comment\n2 2\n# another\n100\n0 50\n100 25\n")
        img = read_pgm(path)
        np.testing.assert_allclose(
            img.pixels, [[0.0, 0.5], [1.0, 0.25]], atol=1e-12
        )

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P7\n2 2\n255\n")
        with pytest.raises(ConfigError):
            read_pgm(path)

    def test_rejects_truncated_raster(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\nab")
        with pytest.raises(ConfigError):
            read_pgm(path)

    @pytest.mark.parametrize("sample", [b"3.5", b"abc"])
    def test_rejects_non_integer_p2_sample(self, tmp_path, sample):
        path = tmp_path / "s.pgm"
        path.write_bytes(b"P2\n2 1\n255\n0 " + sample + b"\n")
        with pytest.raises(ConfigError, match="non-integer P2 sample"):
            read_pgm(path)


class TestLabelOutput:
    def test_three_label_gray_levels(self):
        assert list(label_gray_levels(3)) == [0, 127, 255]

    def test_two_label_gray_levels(self):
        assert list(label_gray_levels(2)) == [0, 255]

    def test_label_map_roundtrip(self, tmp_path):
        W = Labeling(np.array([[1, 2], [3, 1]]), 3)
        path = tmp_path / "lab.pgm"
        write_label_pgm(path, W)
        img = read_pgm(path)
        expected = np.array([[0, 127], [255, 0]]) / 255.0
        np.testing.assert_allclose(img.pixels, expected, atol=1e-12)


class TestOverlay:
    def test_boundary_mask(self):
        W = Labeling(np.array([[1, 1], [2, 2]]), 2)
        mask = boundary_mask(W)
        assert mask.all()  # every pixel touches the horizontal boundary
        W2 = Labeling(np.ones((3, 3), dtype=int), 2)
        assert not boundary_mask(W2).any()

    def test_overlay_writes_red_on_boundaries(self, tmp_path):
        img = Image(2, 2, np.full((2, 2), 0.5))
        W = Labeling(np.array([[1, 2], [1, 2]]), 2)
        path = tmp_path / "o.ppm"
        write_overlay_ppm(path, img, W)
        data = path.read_bytes()
        header_end = data.index(b"255\n") + 4
        raster = np.frombuffer(data[header_end:], dtype=np.uint8).reshape(2, 2, 3)
        assert tuple(raster[0, 0]) == (255, 0, 0)  # boundary pixel is red
