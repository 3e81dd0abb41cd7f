"""Minimal netpbm I/O: PGM (P2/P5) in, PGM/PPM (P5/P6) out.

Inputs are 8-bit grayscale images (maxval <= 255); intensities are
scaled to [0, 1] on read. Label maps are written with labels mapped to
maximally separated gray levels; the overlay writer draws region
boundaries in red on the grayscale image.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .swcut import Image, Labeling


def _tokens(data: bytes):
    """Yield whitespace-separated header tokens, skipping # comments."""
    i = 0
    n = len(data)
    while i < n:
        c = data[i:i + 1]
        if c.isspace():
            i += 1
        elif c == b"#":
            while i < n and data[i:i + 1] != b"\n":
                i += 1
        else:
            j = i
            while j < n and not data[j:j + 1].isspace() and data[j:j + 1] != b"#":
                j += 1
            yield data[i:j], j
            i = j


def read_pgm(path) -> Image:
    """Read a P2 (ASCII) or P5 (binary) PGM file into an Image."""
    with open(path, "rb") as fh:
        data = fh.read()
    gen = _tokens(data)
    try:
        magic, _ = next(gen)
        if magic not in (b"P2", b"P5"):
            raise ConfigError(f"not a P2/P5 PGM file: magic {magic!r}")
        (wtok, _), (htok, _), (mtok, mend) = next(gen), next(gen), next(gen)
        width, height, maxval = int(wtok), int(htok), int(mtok)
    except (StopIteration, ValueError) as exc:
        raise ConfigError(f"malformed PGM header in {path}") from exc
    if width < 1 or height < 1 or not 0 < maxval <= 255:
        raise ConfigError(
            f"unsupported PGM dimensions/maxval {width}x{height}/{maxval}"
        )

    if magic == b"P5":
        raster = data[mend + 1:mend + 1 + width * height]
        if len(raster) < width * height:
            raise ConfigError(f"truncated P5 raster in {path}")
        values = np.frombuffer(raster, dtype=np.uint8).astype(np.float64)
    else:
        tokens = [tok for _, (tok, _) in zip(range(width * height), gen)]
        if len(tokens) < width * height:
            raise ConfigError(f"truncated P2 raster in {path}")
        try:
            values = np.array([int(tok) for tok in tokens], dtype=np.float64)
        except ValueError:
            raise ConfigError(f"non-integer P2 sample in {path}") from None
    if values.max() > maxval:
        raise ConfigError(f"sample above maxval in {path}")
    pixels = (values / maxval).reshape(height, width)
    return Image(width, height, pixels)


def write_pgm(path, gray: np.ndarray, ascii_format: bool = False) -> None:
    """Write an 8-bit gray array (h, w) as P5 (or P2) with maxval 255."""
    g = np.asarray(gray)
    if g.ndim != 2:
        raise ShapeError("gray array must be 2-D")
    g = np.clip(np.rint(g), 0, 255).astype(np.uint8)
    h, w = g.shape
    if ascii_format:
        lines = [f"P2\n{w} {h}\n255\n"]
        for row in g:
            lines.append(" ".join(str(int(v)) for v in row) + "\n")
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.writelines(lines)
    else:
        with open(path, "wb") as fh:
            fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
            fh.write(g.tobytes())


def label_gray_levels(n_labels: int) -> np.ndarray:
    """Maximally separated gray levels for labels 1..L (L=3 -> 0, 127, 255)."""
    if n_labels < 1:
        raise ConfigError("n_labels must be >= 1")
    if n_labels == 1:
        return np.array([0])
    return (np.arange(n_labels) * 255) // (n_labels - 1)


def write_label_pgm(path, W: Labeling, ascii_format: bool = False) -> None:
    """Write a label map as a PGM with separated gray levels."""
    levels = label_gray_levels(W.n_labels)
    write_pgm(path, levels[W.labels - 1], ascii_format=ascii_format)


def boundary_mask(W: Labeling) -> np.ndarray:
    """Pixels having a 4-neighbor with a different label."""
    lab = W.labels
    mask = np.zeros(lab.shape, dtype=bool)
    diff_h = lab[:, :-1] != lab[:, 1:]
    diff_v = lab[:-1, :] != lab[1:, :]
    mask[:, :-1] |= diff_h
    mask[:, 1:] |= diff_h
    mask[:-1, :] |= diff_v
    mask[1:, :] |= diff_v
    return mask


def write_overlay_ppm(path, image: Image, W: Labeling) -> None:
    """Write the image as P6 color with region boundaries drawn in red."""
    if W.labels.shape != (image.height, image.width):
        raise ShapeError("labeling shape does not match image")
    gray = np.clip(np.rint(image.pixels * 255.0), 0, 255).astype(np.uint8)
    rgb = np.stack([gray, gray, gray], axis=-1)
    mask = boundary_mask(W)
    rgb[mask] = (255, 0, 0)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{image.width} {image.height}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())
