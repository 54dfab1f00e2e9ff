"""Sliding-window localization against a single-class template model."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import Model, _chi2_terms
from .descriptor import _cell_edges
from .errors import ModelMismatchError, ParameterError
from .image import GrayImage
from .lbp import lbp_map


@dataclass(frozen=True)
class Detection:
    """Window hit; score is the chi-square distance to the template (lower is better)."""

    x: int
    y: int
    width: int
    height: int
    score: float


def iou(a: Detection, b: Detection) -> float:
    """Intersection over union of two inclusive pixel rectangles."""
    ix0 = max(a.x, b.x)
    iy0 = max(a.y, b.y)
    ix1 = min(a.x + a.width - 1, b.x + b.width - 1)
    iy1 = min(a.y + a.height - 1, b.y + b.height - 1)
    iw = max(0, ix1 - ix0 + 1)
    ih = max(0, iy1 - iy0 + 1)
    inter = iw * ih
    if inter == 0:
        return 0.0
    union = a.width * a.height + b.width * b.height - inter
    return inter / union


def _box_sums(counts: np.ndarray, widths, axis: int) -> dict[int, np.ndarray]:
    """Sums of `w` consecutive entries of `counts` along `axis`, for each w in `widths`.

    Entry i of width w's image is the sum of entries i .. i + w - 1. A box
    adds the power-of-two partial sums of w's set bits, highest first, and
    widths share both those sums and any run of top bits they have in
    common. Sums keep the dtype of `counts`, which must hold them all.
    """
    a = counts.swapaxes(0, axis)
    n = len(a)
    powers = [a]  # powers[k][i] sums entries i .. i + 2**k - 1
    while 2 ** len(powers) <= max(widths):
        half = 2 ** (len(powers) - 1)
        powers.append(powers[-1][:-half] + powers[-1][half:])
    sums = {}  # sums[u] for u each run of top bits of some width
    for w in widths:
        u = 0
        for k in reversed(range(len(powers))):
            if w >> k & 1 and u + 2**k not in sums:
                piece = powers[k][u : n - 2**k + 1]
                sums[u + 2**k] = sums[u][: len(piece)] + piece if u else piece
            u += w & 2**k
    return {w: sums[w].swapaxes(0, axis) for w in widths}


def _chi2_scores(
    full: np.ndarray,
    templates: np.ndarray,
    map_size: tuple[int, int],
    stride: int,
) -> np.ndarray:
    """Chi-square distance of each window's grid histogram to `templates[r, c]`.

    Window (i, j) covers full[i*stride : i*stride + map_h, ...], for every
    window that fits in `full`. All cell corners lie on multiples of
    g = gcd(stride, cell edges) on each axis, so counts come one label b at
    a time from b's count per g-by-g block: box sums of those counts over
    each cell size, in the narrowest unsigned type that holds a cell's area,
    give a cell's count at every block, and a strided slice picks the window
    positions. The `_chi2_terms` of each possible count are tabulated per
    cell. Memory stays O(H*W) whatever the bin count; only the order in
    which terms are summed differs from the per-window computation.
    """
    rows, cols, bins = templates.shape
    map_h, map_w = map_size
    ny, nx = ((n - m) // stride + 1 for n, m in zip(full.shape, map_size))
    row_cells = _cell_edges(map_h, rows)
    col_cells = _cell_edges(map_w, cols)
    gy = math.gcd(stride, *(e for cell in row_cells for e in cell))
    gx = math.gcd(stride, *(e for cell in col_cells for e in cell))
    # pixels below or right of the last window are never counted
    by = ((ny - 1) * stride + map_h) // gy
    bx = ((nx - 1) * stride + map_w) // gx
    crop = full[: by * gy, : bx * gx].reshape(-1)
    block = (np.arange(by * gy) // gy)[:, None] * bx + np.arange(bx * gx) // gx
    # block index of every pixel, grouped by label; the narrowest dtype that
    # holds the labels makes the stable sort a radix sort
    block = block.reshape(-1)[np.argsort(crop.astype(np.min_scalar_type(bins - 1)), kind="stable")]
    counts = np.bincount(crop, minlength=bins)
    # a label absent from both the scene and the template adds 0 everywhere
    labels = np.flatnonzero((counts > 0) | (templates != 0).any(axis=(0, 1)))

    areas = np.array([[(y1 - y0) * (x1 - x0) for x0, x1 in col_cells] for y0, y1 in row_cells])
    # no box sum exceeds the area of some cell, so none wraps
    count_type = np.min_scalar_type(areas.max())
    heights = [(y1 - y0) // gy for y0, y1 in row_cells]
    widths = [(x1 - x0) // gx for x0, x1 in col_cells]
    sy, sx = stride // gy, stride // gx
    span_y = (ny - 1) * sy + 1
    span_x = (nx - 1) * sx + 1
    scores = np.zeros((ny, nx))
    for b, end in zip(labels, np.cumsum(counts[labels])):
        blocks = np.bincount(block[end - counts[b] : end], minlength=by * bx).astype(count_type)
        strips = _box_sums(blocks.reshape(by, bx), widths, 1)
        # boxes[w][h][y, x] counts b in the h-by-w blocks from block (y, x)
        boxes = {w: _box_sums(strip, heights, 0) for w, strip in strips.items()}
        # table[r, c, h] is the term of a cell (r, c) holding h pixels of b;
        # h <= min(cell area, counts[b]), so longer rows are never read
        k = np.arange(min(areas.max(), counts[b]) + 1) / areas[:, :, None]
        table = _chi2_terms(k, templates[:, :, b, None])
        for r, (y0, _) in enumerate(row_cells):
            top = y0 // gy
            for c, (x0, _) in enumerate(col_cells):
                left = x0 // gx
                box = boxes[widths[c]][heights[r]]
                h = box[top : top + span_y : sy, left : left + span_x : sx]
                scores += table[r, c].take(h)
    return scores


def _scan(
    scene: GrayImage, template_model: Model, window: tuple[int, int], stride: int, threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lattice column, lattice row and score arrays of the hits, in `scan_detect` order.

    Hit (j, i) is the window with corner (j * stride, i * stride).
    """
    if template_model.n_classes != 1:
        raise ModelMismatchError(
            f"detection needs a single-class model, got {template_model.n_classes} classes"
        )
    win_w, win_h = window
    if win_w < 1 or win_h < 1:
        raise ParameterError(f"window must be at least 1x1, got {win_w}x{win_h}")
    if win_w > scene.width or win_h > scene.height:
        raise ParameterError(
            f"window {win_w}x{win_h} larger than scene {scene.width}x{scene.height}"
        )
    if stride < 1:
        raise ParameterError(f"stride must be at least 1, got {stride}")
    if not threshold >= 0:
        raise ParameterError(f"threshold must be a non-negative number, got {threshold}")

    params = template_model.params
    o = params.origin_offset
    map_w = win_w - 2 * o
    map_h = win_h - 2 * o
    if map_w < template_model.grid_cols or map_h < template_model.grid_rows:
        raise ParameterError(
            f"window {win_w}x{win_h} too small for a "
            f"{template_model.grid_rows}x{template_model.grid_cols} grid at origin offset {o}"
        )

    # The full-scene map restricted to a window equals that window's own map,
    # so one map computation serves every window position.
    full = lbp_map(scene, params).labels
    rows, cols = template_model.grid_rows, template_model.grid_cols
    templates = template_model.templates[0].reshape(rows, cols, -1)
    scores = _chi2_scores(full, templates, (map_h, map_w), stride)
    ys, xs = np.nonzero(scores <= threshold)
    hit_scores = scores[ys, xs]
    # nonzero lists hits in scan order, so a stable sort breaks score ties by (y, x)
    order = np.argsort(hit_scores, kind="stable")
    return xs[order], ys[order], hit_scores[order]


def _check_iou(iou_threshold: float) -> None:
    if not 0.0 <= iou_threshold <= 1.0:
        raise ParameterError(f"iou threshold must lie in [0, 1], got {iou_threshold}")


def _suppress(x0, y0, w, h, iou_threshold: float) -> np.ndarray:
    """Indices of the boxes greedy suppression keeps, for boxes ranked best first.

    Box i covers columns x0[i] .. x0[i] + w[i] - 1 and the matching rows;
    a scalar width or height applies to every box.
    IoU is computed as in `iou`, against all remaining boxes at once.
    """
    _check_iou(iou_threshold)
    x0, y0, w, h = np.broadcast_arrays(x0, y0, w, h)
    x1 = x0 + w - 1
    y1 = y0 + h - 1
    area = w * h
    pending = np.arange(len(x0))
    kept = []
    while pending.size:
        best, rest = pending[0], pending[1:]
        kept.append(best)
        iw = np.maximum(0, np.minimum(x1[best], x1[rest]) - np.maximum(x0[best], x0[rest]) + 1)
        ih = np.maximum(0, np.minimum(y1[best], y1[rest]) - np.maximum(y0[best], y0[rest]) + 1)
        inter = iw * ih
        union = area[best] + area[rest] - inter
        overlap = np.divide(inter, union, out=np.zeros(len(rest)), where=inter != 0)
        pending = rest[overlap <= iou_threshold]
    return np.array(kept, dtype=np.intp)


def _lattice_suppress(cols, rows, window, stride: int, iou_threshold: float) -> np.ndarray:
    """`_suppress`'s kept indices for window-size boxes at corners (cols, rows) * stride.

    The IoU of two such boxes depends only on their lattice offset, so the
    offsets at which a kept box suppresses another form one stencil, built
    with `_suppress`'s arithmetic. A padded grid holds each hit's rank; each
    kept rank flags the ranks under its stencil dead, and the next kept rank
    is the first live one after it.
    """
    _check_iou(iou_threshold)
    n = len(cols)
    win_w, win_h = window
    ny, nx = rows.max(initial=0) + 1, cols.max(initial=0) + 1
    # overlap along each axis at lattice offsets 0, 1, ... while boxes still
    # meet, and no further than any two hits lie apart
    iw = win_w - np.array(range(0, win_w, stride)[:nx])
    ih = win_h - np.array(range(0, win_h, stride)[:ny])
    rx, ry = len(iw) - 1, len(ih) - 1
    inter = np.concatenate((ih[:0:-1], ih))[:, None] * np.concatenate((iw[:0:-1], iw))
    union = 2 * win_w * win_h - inter
    overlap = np.divide(inter, union, out=np.zeros(inter.shape), where=inter != 0)
    di, dj = np.nonzero(overlap > iou_threshold)
    width = nx + 2 * rx
    stencil = (di - ry) * width + dj - rx
    at = (rows + ry) * width + cols + rx
    # cells without a hit hold rank n; dead[n + 1] stays False and ends the walk
    grid = np.full((ny + 2 * ry) * width, n)
    grid[at] = np.arange(n)
    dead = np.zeros(n + 2, dtype=bool)
    kept = []
    k = 0
    while k < n:
        kept.append(k)
        dead[grid[at[k] + stencil]] = True
        dead[k] = True  # offset (0, 0) is not in the stencil at IoU 1
        k += dead[k:].argmin()
    return np.array(kept, dtype=np.intp)


def scan_detect(
    scene: GrayImage,
    template_model: Model,
    window: tuple[int, int],
    stride: int = 1,
    threshold: float = float("inf"),
) -> list[Detection]:
    """Score every stride-aligned window against the template and keep hits.

    Each window's grid descriptor (computed with the model's configuration)
    is compared to the single template by chi-square distance; windows at
    distance <= threshold are returned sorted ascending by distance, with
    row-major scan order breaking ties.
    """
    cols, rows, scores = _scan(scene, template_model, window, stride, threshold)
    win_w, win_h = window
    return [
        Detection(x=j * stride, y=i * stride, width=win_w, height=win_h, score=score)
        for j, i, score in zip(cols.tolist(), rows.tolist(), scores.tolist())
    ]


def nms(detections, iou_threshold: float) -> list[Detection]:
    """Greedy suppression: keep the best-scoring box, drop overlapping rivals.

    A box is dropped when its IoU with an already-kept box exceeds
    `iou_threshold`; output is sorted ascending by score. Ties keep their
    input order, which for scan_detect output is row-major scan order.
    """
    ranked = sorted(detections, key=lambda d: d.score)
    boxes = (
        np.array([getattr(d, name) for d in ranked], dtype=np.int64)
        for name in ("x", "y", "width", "height")
    )
    keep = _suppress(*boxes, iou_threshold)
    return [ranked[i] for i in keep]
