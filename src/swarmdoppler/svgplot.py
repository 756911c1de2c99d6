"""Small deterministic SVG plot renderer.

Textual, diffable output with no timestamps, random ids or font-metric
dependence, so identical inputs always produce identical bytes.  Supports
line plots (linear or log ordinate), impulse stems, vertical markers and a
heatmap rendered as an embedded PNG (stdlib zlib, fixed compression level).
"""
from __future__ import annotations

import math
import struct
import zlib

import numpy as np

_MARGIN_L = 72
_MARGIN_R = 24
_MARGIN_T = 40
_MARGIN_B = 52
_WIDTH = 900
_LINE_HEIGHT = 520
_HEATMAP_HEIGHT = 560
_DB_FLOOR = -60.0     # heatmap levels this far below the peak share one colour
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")

# dark-blue -> magenta -> yellow ramp for heatmaps
_CMAP_ANCHORS = ((13, 8, 135), (126, 3, 168), (204, 71, 120),
                 (248, 149, 64), (240, 249, 33))


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    return f"{v:.6g}"


def _nice_ticks(lo: float, hi: float, target: int = 6):
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    span = hi - lo
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float):
    lo_d = math.floor(math.log10(lo))
    hi_d = math.ceil(math.log10(hi))
    step = max(1, (hi_d - lo_d) // 8)
    return [10.0 ** d for d in range(lo_d, hi_d + 1, step)]


class _Frame:
    """Maps data coordinates onto the pixel plot box."""

    def __init__(self, width, height, x_lo, x_hi, y_lo, y_hi, ylog):
        self.width = width
        self.height = height
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi
        self.ylog = ylog
        self.box_w = width - _MARGIN_L - _MARGIN_R
        self.box_h = height - _MARGIN_T - _MARGIN_B

    def px(self, x):
        span = self.x_hi - self.x_lo or 1.0
        return _MARGIN_L + self.box_w * (x - self.x_lo) / span

    def py(self, y):
        if self.ylog:
            y = math.log10(max(y, 1e-320))
            lo, hi = math.log10(self.y_lo), math.log10(self.y_hi)
        else:
            lo, hi = self.y_lo, self.y_hi
        span = hi - lo or 1.0
        return _MARGIN_T + self.box_h * (1.0 - (y - lo) / span)


def _svg_header(width, height, title):
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="24" font-family="monospace" font-size="14" '
            f'text-anchor="middle">{title}</text>'
        )
    return parts


def _axes(parts, frame, xlabel, ylabel):
    x0, x1 = _MARGIN_L, frame.width - _MARGIN_R
    y0, y1 = _MARGIN_T, frame.height - _MARGIN_B
    parts.append(f'<rect x="{x0}" y="{y0}" width="{frame.box_w}" height="{frame.box_h}" '
                 'fill="none" stroke="black" stroke-width="1"/>')
    if frame.ylog:
        yticks = _log_ticks(frame.y_lo, frame.y_hi)
    else:
        yticks = _nice_ticks(frame.y_lo, frame.y_hi)
    for t in _nice_ticks(frame.x_lo, frame.x_hi):
        px = frame.px(t)
        parts.append(f'<line x1="{px:.2f}" y1="{y1}" x2="{px:.2f}" y2="{y1 + 5}" '
                     'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{px:.2f}" y="{y1 + 18}" font-family="monospace" '
                     f'font-size="11" text-anchor="middle">{_fmt(t)}</text>')
    for t in yticks:
        py = frame.py(t)
        if py < y0 - 0.5 or py > y1 + 0.5:
            continue
        parts.append(f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" '
                     'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{x0 - 8}" y="{py + 4:.2f}" font-family="monospace" '
                     f'font-size="11" text-anchor="end">{_fmt(t)}</text>')
    if xlabel:
        parts.append(f'<text x="{(x0 + x1) / 2:.1f}" y="{frame.height - 14}" '
                     'font-family="monospace" font-size="12" '
                     f'text-anchor="middle">{xlabel}</text>')
    if ylabel:
        cx, cy = 16, (y0 + y1) / 2
        parts.append(f'<text x="{cx}" y="{cy:.1f}" font-family="monospace" font-size="12" '
                     f'text-anchor="middle" transform="rotate(-90 {cx} {cy:.1f})">'
                     f'{ylabel}</text>')


def line_svg(series, *, title="", xlabel="", ylabel="", ylog=False, vlines=(),
             stems=()) -> str:
    """Render one or more (x, y, label) series as an SVG line plot.

    ``vlines`` are (x, label) markers; ``stems`` are (x, y) impulses drawn
    from zero.  In ``ylog`` mode nonpositive samples are dropped.
    """
    xs_all, ys_all = [], []
    cleaned = []
    for x, y, label in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if ylog:
            keep = y > 0
            x, y = x[keep], y[keep]
        cleaned.append((x, y, label))
        if x.size:
            xs_all.append(x)
            ys_all.append(y)
    for x, y in stems:
        xs_all.append(np.array([float(x)]))
        ys_all.append(np.array([float(y)]))
    for x, _ in vlines:
        xs_all.append(np.array([float(x)]))
    if not xs_all:
        xs_all = [np.array([0.0, 1.0])]
        ys_all = [np.array([0.0, 1.0])]
    x_lo = min(float(a.min()) for a in xs_all)
    x_hi = max(float(a.max()) for a in xs_all)
    y_lo = min(float(a.min()) for a in ys_all)
    y_hi = max(float(a.max()) for a in ys_all)
    if ylog:
        y_lo = max(y_lo, 1e-300)
        y_hi = max(y_hi, y_lo * 10)
    else:
        pad = 0.05 * ((y_hi - y_lo) or 1.0)
        y_lo -= pad
        y_hi += pad
        if stems:
            y_lo = min(y_lo, 0.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    frame = _Frame(_WIDTH, _LINE_HEIGHT, x_lo, x_hi, y_lo, y_hi, ylog)
    parts = _svg_header(_WIDTH, _LINE_HEIGHT, title)
    _axes(parts, frame, xlabel, ylabel)
    for xv, label in vlines:
        px = frame.px(float(xv))
        parts.append(f'<line x1="{px:.2f}" y1="{_MARGIN_T}" x2="{px:.2f}" '
                     f'y2="{_LINE_HEIGHT - _MARGIN_B}" stroke="#888888" stroke-width="1" '
                     'stroke-dasharray="4,3"/>')
        if label:
            parts.append(f'<text x="{px + 4:.2f}" y="{_MARGIN_T + 12}" '
                         f'font-family="monospace" font-size="10">{label}</text>')
    for xv, yv in stems:
        px = frame.px(float(xv))
        parts.append(f'<line x1="{px:.2f}" y1="{frame.py(0.0 if not ylog else frame.y_lo):.2f}" '
                     f'x2="{px:.2f}" y2="{frame.py(float(yv)):.2f}" '
                     f'stroke="{_PALETTE[0]}" stroke-width="1.5"/>')
    legend_y = _MARGIN_T + 14
    for i, (x, y, label) in enumerate(cleaned):
        color = _PALETTE[i % len(_PALETTE)]
        if x.size:
            pts = " ".join(f"{frame.px(a):.2f},{frame.py(b):.2f}" for a, b in zip(x, y))
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                         'stroke-width="1.2"/>')
        if label:
            lx = _WIDTH - _MARGIN_R - 180
            parts.append(f'<line x1="{lx}" y1="{legend_y - 4}" x2="{lx + 22}" '
                         f'y2="{legend_y - 4}" stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{lx + 28}" y="{legend_y}" font-family="monospace" '
                         f'font-size="11">{label}</text>')
            legend_y += 16
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _colormap(values: np.ndarray) -> np.ndarray:
    """Map values in [0, 1] to RGB via the anchor ramp."""
    anchors = np.asarray(_CMAP_ANCHORS, dtype=float)
    pos = np.linspace(0.0, 1.0, len(anchors))
    rgb = np.empty(values.shape + (3,), dtype=np.uint8)
    for ch in range(3):
        rgb[..., ch] = np.clip(np.interp(values, pos, anchors[:, ch]), 0, 255) \
            .astype(np.uint8)
    return rgb


def _png_bytes(rgb: np.ndarray) -> bytes:
    """Encode an (H, W, 3) uint8 image as PNG deterministically."""
    height, width, _ = rgb.shape
    raw = b"".join(b"\x00" + rgb[row].tobytes() for row in range(height))

    def chunk(tag: bytes, payload: bytes) -> bytes:
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))

    header = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", header)
            + chunk(b"IDAT", zlib.compress(raw, 6))
            + chunk(b"IEND", b""))


def heatmap_svg(matrix, x, y, *, title="", xlabel="", ylabel="") -> str:
    """Render a power matrix (rows indexed by ``y``) as a dB heatmap.

    The raster is embedded as a base64 PNG; row 0 of ``matrix`` is drawn at
    the bottom so the ``y`` axis ascends.
    """
    import base64

    z = np.asarray(matrix, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    peak = z.max() if z.size and z.max() > 0 else 1.0
    db = 10.0 * np.log10(np.maximum(z / peak, 10.0 ** (_DB_FLOOR / 10.0)))
    norm = (db - _DB_FLOOR) / (-_DB_FLOOR)
    rgb = _colormap(norm[::-1, :])   # flip so low y lands at the image bottom
    frame = _Frame(_WIDTH, _HEATMAP_HEIGHT, float(x.min()), float(x.max()),
                   float(y.min()), float(y.max()), ylog=False)
    parts = _svg_header(_WIDTH, _HEATMAP_HEIGHT, title)
    payload = base64.b64encode(_png_bytes(rgb)).decode("ascii")
    parts.append(
        f'<image x="{_MARGIN_L}" y="{_MARGIN_T}" width="{frame.box_w}" '
        f'height="{frame.box_h}" preserveAspectRatio="none" '
        f'href="data:image/png;base64,{payload}"/>'
    )
    _axes(parts, frame, xlabel, ylabel)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
