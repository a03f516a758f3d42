"""Point-splat rasterization of invariant-set approximations.

The writer emits minimal PNG files (8-bit RGB, fixed zlib level) directly, so
identical inputs produce byte-identical images on every platform. This is a
plotting-free renderer on purpose: one pixel per point, white background, one
fixed color per vertex component.
"""

import struct
import zlib

import numpy as np

from .errors import ResolutionError

__all__ = ["PALETTE", "render_bounds", "image_shape", "rasterize", "write_png",
           "render_attractor"]

# first color per declared vertex, cycling if a system has more components
PALETTE = (
    (31, 119, 180),
    (214, 39, 40),
    (44, 160, 44),
    (148, 103, 189),
    (255, 127, 14),
    (23, 190, 207),
)

_MARGIN = 0.05

# the largest image rasterized, 96 MiB as RGB bytes
_MAX_PIXELS = 1 << 25

# Images are laid out in quarter coordinates. A power-of-two scale is exact
# above the subnormal range, so every pixel is the same, and quarters of two
# finite coordinates, margin included, differ by a finite amount: an image too
# tall or too wide for the cap is refused by the cap, with no overflow on the
# way.
_SCALE = 0.25


def render_bounds(spec):
    """Union of the seed boxes with a 5% margin, as (lo, hi) arrays in 2-d.

    One-dimensional systems render on a horizontal band of fixed height.
    """
    lo, hi = _quarter_bounds(spec)
    return lo / _SCALE, hi / _SCALE


def _quarter_bounds(spec):
    """render_bounds in quarter coordinates, finite for any valid spec."""
    los = np.array([spec.seed_boxes[v].lo for v in spec.graph.vertices]) * _SCALE
    his = np.array([spec.seed_boxes[v].hi for v in spec.graph.vertices]) * _SCALE
    lo, hi = los.min(axis=0), his.max(axis=0)
    if spec.dimension == 1:
        width = float(hi[0] - lo[0])
        lo = np.array([lo[0], -0.05 * width])
        hi = np.array([hi[0], 0.05 * width])
    pad = _MARGIN * (hi - lo)
    return lo - pad, hi + pad


def image_shape(spec, px=512):
    """(height, width) of the image rasterize makes of spec at width px.

    The height follows the aspect of the bounds. A width below 16 is refused
    with ValueError and an image above _MAX_PIXELS with ResolutionError. Both
    depend on the spec and px only, so a caller can check them before it
    computes the clouds.
    """
    if px < 16:
        raise ValueError("image width must be at least 16 pixels")
    lo, hi = _quarter_bounds(spec)
    span = hi - lo
    # a width past the cap is refused at any height; the height is a Python
    # float, so one too large for an int or a float (inf) is refused too
    width = min(px, _MAX_PIXELS + 1)
    height = max(16.0, float(np.rint(width * float(span[1]) / float(span[0]))))
    if width * height > _MAX_PIXELS:
        raise ResolutionError(
            f"an image of at least {px} x {height:.6g} pixels exceeds the cap "
            f"of {_MAX_PIXELS} pixels; lower the width")
    return int(height), px


def rasterize(spec, approx, px=512):
    """Render the clouds to an RGB uint8 array of the shape image_shape gives."""
    height, _ = image_shape(spec, px)
    lo, hi = _quarter_bounds(spec)
    span = hi - lo
    image = np.full((height, px, 3), 255, dtype=np.uint8)
    for k, v in enumerate(spec.graph.vertices):
        color = PALETTE[k % len(PALETTE)]
        pts = approx.cloud(v).points * _SCALE
        if spec.dimension == 1:
            xy = np.column_stack([pts[:, 0], np.zeros(len(pts))])
        else:
            xy = pts
        cols = np.clip(((xy[:, 0] - lo[0]) / span[0] * (px - 1)).round(),
                       0, px - 1).astype(int)
        rows = np.clip(((hi[1] - xy[:, 1]) / span[1] * (height - 1)).round(),
                       0, height - 1).astype(int)
        image[rows, cols] = color
    return image


def _chunk(tag, payload):
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))


def write_png(image, path):
    """Write an (H, W, 3) uint8 array as an RGB PNG with deterministic bytes."""
    arr = np.ascontiguousarray(image, dtype=np.uint8)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError("expected an (H, W, 3) RGB array")
    height, width = arr.shape[:2]
    raw = b"".join(b"\x00" + arr[row].tobytes() for row in range(height))
    header = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    payload = (b"\x89PNG\r\n\x1a\n"
               + _chunk(b"IHDR", header)
               + _chunk(b"IDAT", zlib.compress(raw, 6))
               + _chunk(b"IEND", b""))
    with open(path, "wb") as fh:
        fh.write(payload)


def render_attractor(spec, approx, path, px=512):
    """Rasterize and write in one step; returns the image shape."""
    image = rasterize(spec, approx, px=px)
    write_png(image, path)
    return image.shape
