import io
import json
import struct
import zlib

import numpy as np
import pytest

import mwlab.cli
import mwlab.render
from conftest import approx_for, bundled
from mwlab.cli import main
from mwlab.errors import ResolutionError
from mwlab.render import PALETTE, rasterize, render_bounds, write_png


def decode_png(path):
    data = path.read_bytes()
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    pos = 8
    chunks = {}
    while pos < len(data):
        length = struct.unpack(">I", data[pos:pos + 4])[0]
        tag = data[pos + 4:pos + 8]
        payload = data[pos + 8:pos + 8 + length]
        crc = struct.unpack(">I", data[pos + 8 + length:pos + 12 + length])[0]
        assert crc == zlib.crc32(tag + payload) & 0xFFFFFFFF
        chunks.setdefault(tag, b"")
        chunks[tag] += payload
        pos += 12 + length
    width, height, bits, color = struct.unpack(">IIBB", chunks[b"IHDR"][:10])
    assert bits == 8 and color == 2
    raw = zlib.decompress(chunks[b"IDAT"])
    stride = width * 3 + 1
    rows = []
    for r in range(height):
        line = raw[r * stride:(r + 1) * stride]
        assert line[0] == 0  # no filtering
        rows.append(np.frombuffer(line[1:], dtype=np.uint8).reshape(width, 3))
    return np.stack(rows)


class TestRender:
    def test_bounds_cover_boxes_with_margin(self):
        spec = bundled("squares_z2")
        lo, hi = render_bounds(spec)
        assert lo[0] < 0 and hi[0] > 3
        assert lo[1] < 0 and hi[1] > 1

    def test_png_round_trip(self, tmp_path):
        spec = bundled("two_part_dust")
        image = rasterize(spec, approx_for("two_part_dust", 7), px=200)
        target = tmp_path / "dust.png"
        write_png(image, target)
        decoded = decode_png(target)
        np.testing.assert_array_equal(decoded, image)

    def test_dust_component_pixels_disjoint(self):
        spec = bundled("two_part_dust")
        image = rasterize(spec, approx_for("two_part_dust", 8), px=300)
        c1 = np.array(PALETTE[0])
        c2 = np.array(PALETTE[1])
        cols1 = np.nonzero((image == c1).all(axis=2).any(axis=0))[0]
        cols2 = np.nonzero((image == c2).all(axis=2).any(axis=0))[0]
        assert cols1.size and cols2.size
        # bounding boxes of the two colored clusters do not overlap in x
        assert cols1.max() < cols2.min()

    def test_one_dimensional_rendering(self, tmp_path):
        spec = bundled("cantor_ifs")
        image = rasterize(spec, approx_for("cantor_ifs", 7), px=240)
        assert image.shape[1] == 240
        marked = (image != 255).any(axis=2)
        assert marked.any()

    def test_deterministic_bytes(self, tmp_path):
        spec = bundled("penrose")
        a, b = tmp_path / "a.png", tmp_path / "b.png"
        write_png(rasterize(spec, approx_for("penrose", 7), px=180), a)
        write_png(rasterize(spec, approx_for("penrose", 7), px=180), b)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_tiny_width(self):
        spec = bundled("binary_ifs")
        with pytest.raises(ValueError):
            rasterize(spec, approx_for("binary_ifs", 5), px=4)


def tall(width, height):
    """A valid system on a [0, width] x [0, height] seed box."""
    return {
        "name": "tall", "dimension": 2,
        "vertices": [{"id": "v", "seed_box": [[0.0, 0.0], [width, height]]}],
        "edges": [
            {"id": f"e{k}", "source": "v", "range": "v",
             "map": {"kind": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]],
                     "translation": [shift * width, 0.0]}}
            for k, shift in enumerate((0.0, 0.5))],
    }


class TestImageSizeCap:
    """An image above the pixel cap is refused before it is allocated."""

    @pytest.fixture
    def no_allocation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError(f"image allocated with shape {args[0]}")

        monkeypatch.setattr(mwlab.render.np, "full", refuse)

    @pytest.mark.parametrize("box,px", [
        # 512 wide needs 512,000,000 rows: 732 GiB as RGB bytes
        ((1.0, 1e6), 512),
        ((1.0, 1e6), 10 ** 8),
        ((1.0, 1e6), 10 ** 400),
        # an aspect of 1e600 overflows a float
        ((1e-300, 1e300), 512),
        # a finite box whose height with the margin overflows a float
        ((1.0, 1.7e308), 512),
    ])
    def test_cli_exits_with_resource_error(self, tmp_path, no_allocation, box,
                                           px):
        doc, png = tmp_path / "tall.json", tmp_path / "tall.png"
        doc.write_text(json.dumps(tall(*box)))
        out, err = io.StringIO(), io.StringIO()
        code = main(["attractor", str(doc), "--depth", "4", "--png", str(png),
                     "--px", str(px)], out=out, err=err)
        assert code == 3
        assert "resource error" in err.getvalue()
        assert str(mwlab.render._MAX_PIXELS) in err.getvalue()
        assert not png.exists()

    def test_huge_width_of_a_flat_image(self, tmp_path, no_allocation):
        png = tmp_path / "wide.png"
        err = io.StringIO()
        code = main(["attractor", "binary_ifs", "--depth", "4", "--png",
                     str(png), "--px", str(10 ** 8)], out=io.StringIO(), err=err)
        assert code == 3 and "resource error" in err.getvalue()
        assert not png.exists()

    def test_cap_is_inclusive(self, monkeypatch):
        spec, approx = bundled("binary_ifs"), approx_for("binary_ifs", 5)
        height, width, _ = rasterize(spec, approx, px=512).shape
        monkeypatch.setattr(mwlab.render, "_MAX_PIXELS", height * width)
        assert rasterize(spec, approx, px=512).shape == (height, width, 3)
        monkeypatch.setattr(mwlab.render, "_MAX_PIXELS", height * width - 1)
        with pytest.raises(ResolutionError, match=f"512 x {height} pixels"):
            rasterize(spec, approx, px=512)


class TestImageRefusedBeforeSweep:
    """A width or an image size the renderer refuses is refused before any
    point is computed, so neither the summary nor the CSV is written."""

    @pytest.fixture
    def no_sweep(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the clouds were computed")

        monkeypatch.setattr(mwlab.cli, "invariant_list", refuse)

    def attractor(self, tmp_path, spec, px):
        csv, png = tmp_path / "cloud.csv", tmp_path / "cloud.png"
        out, err = io.StringIO(), io.StringIO()
        code = main(["attractor", spec, "--depth", "5", "--csv", str(csv),
                     "--png", str(png), "--px", str(px)], out=out, err=err)
        assert out.getvalue() == ""
        assert not csv.exists() and not png.exists()
        return code, err.getvalue()

    @pytest.mark.parametrize("px", [1, 0, -5])
    def test_narrow_width(self, tmp_path, no_sweep, px):
        code, err = self.attractor(tmp_path, "penrose", px)
        assert code == 2
        assert err == "error: image width must be at least 16 pixels\n"

    def test_image_above_the_cap(self, tmp_path, no_sweep):
        doc = tmp_path / "tall.json"
        doc.write_text(json.dumps(tall(1.0, 1e6)))
        code, err = self.attractor(tmp_path, str(doc), 512)
        assert code == 3
        assert err.startswith("resource error:")
        assert str(mwlab.render._MAX_PIXELS) in err

    def test_image_shape_matches_rasterize(self):
        spec = bundled("penrose")
        image = rasterize(spec, approx_for("penrose", 5), px=200)
        assert image.shape == (*mwlab.render.image_shape(spec, 200), 3)
