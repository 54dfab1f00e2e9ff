"""IoU, sliding-window scan, and non-maximum suppression tests."""

import tracemalloc

import numpy as np
import pytest

from lbpx import (
    MAPPING_MODES,
    Detection,
    GrayImage,
    LbpParams,
    Model,
    ModelMismatchError,
    ParameterError,
    build_templates,
    distance,
    grid_descriptor,
    iou,
    label_count,
    lbp_map,
    nms,
    scan_detect,
)
from lbpx.descriptor import _cell_edges, grid_values
from lbpx.detect import _lattice_suppress, _suppress

from conftest import random_image, texture_image


def scan_oracle(scene, model, window, stride=1, threshold=float("inf")):
    """Reference scan: one grid_values histogram and one distance call per window."""
    win_w, win_h = window
    params = model.params
    o = params.origin_offset
    full = lbp_map(scene, params).labels
    bins = label_count(params.mapping, params.neighbors)
    hits = []
    for y in range(0, scene.height - win_h + 1, stride):
        for x in range(0, scene.width - win_w + 1, stride):
            cells = full[y : y + win_h - 2 * o, x : x + win_w - 2 * o]
            values = grid_values(cells, model.grid_rows, model.grid_cols, bins)
            score = distance(model.templates[0], values, "chi2")
            if score <= threshold:
                hits.append(Detection(x=x, y=y, width=win_w, height=win_h, score=score))
    hits.sort(key=lambda d: d.score)
    return hits


# The per-pixel summed-area scan that `scan_detect` used before its tables
# counted g-by-g blocks and its terms were tabulated; kept verbatim so that
# scores can be compared bit for bit.
def chi2_scores_oracle(
    full: np.ndarray,
    templates: np.ndarray,
    map_size: tuple[int, int],
    positions: tuple[int, int],
    stride: int,
) -> np.ndarray:
    """Chi-square distance of each window's grid histogram to `templates[r, c]`.

    Window (i, j) covers full[i*stride : i*stride + map_h, ...]. Counts come
    one label b at a time from a padded summed-area table of `full == b`,
    whose strided corner slices give a cell's count of b at every position
    at once, so memory stays O(H*W) whatever the bin count. Each term is
    (h-t)^2 / (h+t) as in `distance`, skipping h+t == 0; only the order in
    which terms are summed differs from the per-window computation.
    """
    rows, cols, bins = templates.shape
    map_h, map_w = map_size
    ny, nx = positions
    row_cells = _cell_edges(map_h, rows)
    col_cells = _cell_edges(map_w, cols)
    # a label absent from both the scene and the template adds 0 everywhere
    present = np.bincount(full.reshape(-1), minlength=bins) > 0
    labels = np.flatnonzero(present | (templates != 0).any(axis=(0, 1)))

    span_y = (ny - 1) * stride + 1
    span_x = (nx - 1) * stride + 1
    sat = np.zeros((full.shape[0] + 1, full.shape[1] + 1), dtype=np.int32)
    scores = np.zeros((ny, nx))
    for b in labels:
        np.cumsum(np.cumsum(full == b, axis=0, dtype=np.int32), axis=1, out=sat[1:, 1:])
        # count of b in each column cell's strip, above every row of the table
        strips = [
            sat[:, x1 : x1 + span_x : stride] - sat[:, x0 : x0 + span_x : stride]
            for x0, x1 in col_cells
        ]
        for r, (y0, y1) in enumerate(row_cells):
            for c, (x0, x1) in enumerate(col_cells):
                t = templates[r, c, b]
                h = strips[c][y1 : y1 + span_y : stride] - strips[c][y0 : y0 + span_y : stride]
                h = h / ((y1 - y0) * (x1 - x0))
                total = h + t
                h -= t
                h *= h
                scores += np.divide(h, total, out=np.zeros((ny, nx)), where=total > 0)
    return scores


def scan_scores_oracle(scene, model, window, stride):
    """(ny, nx) scores of every window position from `chi2_scores_oracle`."""
    win_w, win_h = window
    o = model.params.origin_offset
    return chi2_scores_oracle(
        lbp_map(scene, model.params).labels,
        model.templates[0].reshape(model.grid_rows, model.grid_cols, -1),
        (win_h - 2 * o, win_w - 2 * o),
        ((scene.height - win_h) // stride + 1, (scene.width - win_w) // stride + 1),
        stride,
    )


def nms_oracle(detections, iou_threshold):
    """Reference greedy suppression over Python lists, one `iou` call per pair."""
    pending = sorted(detections, key=lambda d: d.score)
    kept = []
    while pending:
        best = pending.pop(0)
        kept.append(best)
        pending = [d for d in pending if iou(best, d) <= iou_threshold]
    return kept


def checker_patch(size, lo=60, hi=180):
    y, x = np.mgrid[0:size, 0:size]
    return GrayImage(np.where((x + y) % 2 == 0, lo, hi).astype(np.uint8))


def patch_model(patch, grid=(3, 3), label="target"):
    desc = grid_descriptor(lbp_map(patch, LbpParams()), *grid)
    return build_templates([(label, desc)])


class TestIou:
    def test_identical_boxes(self):
        a = Detection(3, 4, 10, 8, 0.0)
        assert iou(a, a) == 1.0

    def test_disjoint_boxes(self):
        a = Detection(0, 0, 4, 4, 0.0)
        b = Detection(10, 10, 4, 4, 0.0)
        assert iou(a, b) == 0.0

    def test_edge_adjacent_boxes_do_not_overlap(self):
        a = Detection(0, 0, 2, 2, 0.0)
        b = Detection(2, 0, 2, 2, 0.0)
        assert iou(a, b) == 0.0

    def test_quarter_shift_overlap(self):
        # 4x4 boxes offset by (2, 2): 2x2 pixels shared, union 28
        a = Detection(0, 0, 4, 4, 0.0)
        b = Detection(2, 2, 4, 4, 0.0)
        assert iou(a, b) == pytest.approx(4 / 28)

    def test_containment(self):
        outer = Detection(0, 0, 8, 8, 0.0)
        inner = Detection(2, 2, 4, 4, 0.0)
        assert iou(outer, inner) == pytest.approx(16 / 64)

    def test_symmetry(self, rng):
        for _ in range(200):
            a = Detection(int(rng.integers(0, 20)), int(rng.integers(0, 20)),
                          int(rng.integers(1, 15)), int(rng.integers(1, 15)), 0.0)
            b = Detection(int(rng.integers(0, 20)), int(rng.integers(0, 20)),
                          int(rng.integers(1, 15)), int(rng.integers(1, 15)), 0.0)
            assert iou(a, b) == iou(b, a)
            assert 0.0 <= iou(a, b) <= 1.0


class TestNms:
    def test_keeps_best_of_overlapping_cluster(self):
        cluster = [
            Detection(0, 0, 10, 10, 0.5),
            Detection(1, 0, 10, 10, 0.2),
            Detection(0, 1, 10, 10, 0.9),
        ]
        kept = nms(cluster, 0.3)
        assert kept == [Detection(1, 0, 10, 10, 0.2)]

    def test_distant_boxes_survive(self):
        far = [
            Detection(0, 0, 5, 5, 0.3),
            Detection(50, 50, 5, 5, 0.1),
        ]
        kept = nms(far, 0.3)
        assert kept == [Detection(50, 50, 5, 5, 0.1), Detection(0, 0, 5, 5, 0.3)]

    def test_output_sorted_by_score(self):
        boxes = [
            Detection(0, 0, 4, 4, 0.9),
            Detection(20, 0, 4, 4, 0.1),
            Detection(40, 0, 4, 4, 0.5),
        ]
        scores = [d.score for d in nms(boxes, 0.5)]
        assert scores == sorted(scores)

    def test_iou_exactly_at_threshold_survives(self):
        # suppression requires IoU strictly above the threshold
        a = Detection(0, 0, 4, 4, 0.1)
        b = Detection(2, 2, 4, 4, 0.2)
        kept = nms([a, b], 4 / 28)
        assert kept == [a, b]

    def test_empty_input(self):
        assert nms([], 0.5) == []

    def test_threshold_validation(self):
        with pytest.raises(ParameterError):
            nms([], -0.1)
        with pytest.raises(ParameterError):
            nms([], 1.5)


class TestScanDetect:
    def test_template_scene_scores_zero_at_origin(self):
        patch = checker_patch(16)
        model = patch_model(patch)
        hits = scan_detect(patch, model, (16, 16))
        assert len(hits) == 1
        assert (hits[0].x, hits[0].y) == (0, 0)
        assert hits[0].score == 0.0
        assert (hits[0].width, hits[0].height) == (16, 16)

    def test_window_scores_match_cropped_window_descriptors(self, rng):
        # the scene map sliced at a window equals the window's own map
        scene = texture_image("checker", 24, rng)
        model = patch_model(checker_patch(12), grid=(2, 2))
        hits = scan_detect(scene, model, (12, 12), stride=5)
        assert hits
        for d in sorted(hits, key=lambda d: (d.y, d.x))[:6]:
            crop = GrayImage(scene.pixels[d.y : d.y + 12, d.x : d.x + 12])
            desc = grid_descriptor(lbp_map(crop, model.params), 2, 2)
            expected = distance(model.templates[0], desc.values, "chi2")
            assert d.score == pytest.approx(expected, abs=1e-12)

    def test_planted_patch_is_found(self, rng):
        scene_px = rng.integers(100, 140, size=(48, 48), dtype=np.int64)
        patch = checker_patch(16)
        px, py = 23, 9
        scene_px[py : py + 16, px : px + 16] = patch.pixels
        scene = GrayImage(scene_px)
        model = patch_model(patch)
        hits = scan_detect(scene, model, (16, 16), stride=1)
        best = hits[0]
        # the period-2 pattern makes one-pixel shifts score zero too, so the
        # win is localization, not an exact corner
        assert best.score == 0.0
        assert iou(best, Detection(px, py, 16, 16, 0.0)) >= 0.5
        exact = [d for d in hits if (d.x, d.y) == (px, py)]
        assert exact and exact[0].score == 0.0

    def test_scores_sorted_ascending(self, rng):
        scene = texture_image("vstripes", 30, rng)
        model = patch_model(checker_patch(10), grid=(2, 2))
        hits = scan_detect(scene, model, (10, 10), stride=3)
        scores = [d.score for d in hits]
        assert scores == sorted(scores)

    def test_stride_controls_grid_positions(self, rng):
        scene = texture_image("flat", 32, rng)
        model = patch_model(checker_patch(12), grid=(2, 2))
        hits = scan_detect(scene, model, (12, 12), stride=4)
        for d in hits:
            assert d.x % 4 == 0 and d.y % 4 == 0
        expected_positions = ((32 - 12) // 4 + 1) ** 2
        assert len(hits) == expected_positions

    def test_threshold_filters_hits(self, rng):
        scene = texture_image("flat", 32, rng)
        model = patch_model(checker_patch(12), grid=(2, 2))
        all_hits = scan_detect(scene, model, (12, 12), stride=4)
        cutoff = float(np.median([d.score for d in all_hits]))
        capped = scan_detect(scene, model, (12, 12), stride=4, threshold=cutoff)
        assert capped
        assert all(d.score <= cutoff for d in capped)
        assert len(capped) < len(all_hits)

    def test_requires_single_class_model(self, rng):
        samples = [
            ("a", grid_descriptor(lbp_map(texture_image("flat", 16, rng), LbpParams()))),
            ("b", grid_descriptor(lbp_map(texture_image("checker", 16, rng), LbpParams()))),
        ]
        model = build_templates(samples)
        with pytest.raises(ModelMismatchError):
            scan_detect(texture_image("flat", 32, rng), model, (16, 16))

    def test_window_larger_than_scene_raises(self, rng):
        model = patch_model(checker_patch(16))
        with pytest.raises(ParameterError):
            scan_detect(texture_image("flat", 12, rng), model, (16, 16))

    def test_empty_window_raises(self, rng):
        # the CLI's pair parser rejects such windows first; the library checks its own
        model = patch_model(checker_patch(16))
        with pytest.raises(ParameterError, match="at least 1x1"):
            scan_detect(texture_image("flat", 32, rng), model, (0, 5))

    def test_window_too_small_for_grid_raises(self, rng):
        model = patch_model(checker_patch(16))  # 3x3 grid
        with pytest.raises(ParameterError):
            scan_detect(texture_image("flat", 32, rng), model, (4, 4))

    def test_bad_stride_and_threshold_raise(self, rng):
        model = patch_model(checker_patch(16))
        scene = texture_image("flat", 32, rng)
        with pytest.raises(ParameterError):
            scan_detect(scene, model, (16, 16), stride=0)
        with pytest.raises(ParameterError):
            scan_detect(scene, model, (16, 16), threshold=-1.0)
        with pytest.raises(ParameterError):
            scan_detect(scene, model, (16, 16), threshold=float("nan"))

    def test_template_length_must_match_configuration(self):
        # a 3x3 u2 template (9 x 59 bins) under a raw configuration (9 x 256)
        # cannot become a Model, so it never reaches the scan
        u2 = patch_model(checker_patch(16))
        with pytest.raises(ParameterError):
            Model(
                params=LbpParams(mapping="raw"),
                grid_rows=3,
                grid_cols=3,
                class_labels=u2.class_labels,
                templates=u2.templates,
            )

    def test_raw_scan_memory_stays_near_scene_size(self, rng):
        # a bins x H x W int32 integral histogram of this scene would take 78 MB
        scene = random_image(rng, 320, 240)
        patch = random_image(rng, 32, 32)
        model = build_templates(
            [("t", grid_descriptor(lbp_map(patch, LbpParams(mapping="raw"))))]
        )
        tracemalloc.start()
        try:
            hits = scan_detect(scene, model, (32, 32), stride=16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(hits) == 14 * 19
        assert peak < 16 * 2**20

    def test_whole_scene_window_memory_stays_near_scene_size(self, rng):
        # one 318x238 cell of 75,684 pixels: term tables for every count of
        # every raw label would take 256 x 75,685 floats (155 MB)
        scene = random_image(rng, 320, 240)
        params = LbpParams(mapping="raw")
        model = build_templates(
            [("t", grid_descriptor(lbp_map(random_image(rng, 320, 240), params), 1, 1))]
        )
        tracemalloc.start()
        try:
            hits = scan_detect(scene, model, (320, 240))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert [d.score for d in hits] == [scan_scores_oracle(scene, model, (320, 240), 1)[0, 0]]

    def test_detect_then_nms_pipeline(self, rng):
        scene_px = rng.integers(100, 140, size=(48, 48), dtype=np.int64)
        patch = checker_patch(16)
        scene_px[8:24, 20:36] = patch.pixels
        scene = GrayImage(scene_px)
        model = patch_model(patch)
        hits = nms(scan_detect(scene, model, (16, 16), stride=2), 0.3)
        best = hits[0]
        assert iou(best, Detection(20, 8, 16, 16, 0.0)) >= 0.5
        # neighbors of the best hit were suppressed
        for other in hits[1:]:
            assert iou(best, other) <= 0.3


SCAN_CONFIGS = [LbpParams(mapping=m) for m in MAPPING_MODES] + [
    LbpParams(neighbors=8, radius=1.5, sampling="circular", mapping=m) for m in MAPPING_MODES
]


class TestScanMatchesPerWindowOracle:
    @pytest.mark.parametrize(
        "params", SCAN_CONFIGS, ids=[f"{p.sampling}-{p.mapping}" for p in SCAN_CONFIGS]
    )
    def test_positions_and_scores(self, params, rng):
        # 31x29 windows leave remainder cells on a 3x3 grid in both samplings,
        # and the 47x43 scenes are not multiples of any stride tried
        noise = random_image(rng, 47, 43)
        # stripes code to few labels, so most template labels are absent
        stripes = texture_image("hstripes", 47, rng, noise=3)
        stripes = GrayImage(stripes.pixels[:43])
        crop = GrayImage(noise.pixels[6:35, 5:36])
        model = build_templates(
            [
                ("t", grid_descriptor(lbp_map(crop, params))),
                ("t", grid_descriptor(lbp_map(random_image(rng, 31, 29), params))),
            ]
        )
        for scene in (noise, stripes):
            for stride in range(1, 8):
                want = scan_oracle(scene, model, (31, 29), stride)
                got = scan_detect(scene, model, (31, 29), stride)
                assert [(d.x, d.y) for d in got] == [(d.x, d.y) for d in want]
                for g, w in zip(got, want):
                    assert g.score == pytest.approx(w.score, abs=1e-12)
            # a cutoff midway between two scores, which differ from the
            # oracle's only in the last bits, and not at one of them
            scores = sorted({d.score for d in want})
            k = next(i for i in range(len(scores) // 2, len(scores))
                     if scores[i + 1] - scores[i] > 1e-9)
            cutoff = (scores[k] + scores[k + 1]) / 2
            got = scan_detect(scene, model, (31, 29), 1, threshold=cutoff)
            want = scan_oracle(scene, model, (31, 29), 1, threshold=cutoff)
            assert [(d.x, d.y) for d in got] == [(d.x, d.y) for d in want]


class TestScoresMatchSummedAreaOracle:
    """Block tables and tabulated terms give the per-pixel scan's scores bit for bit."""

    @pytest.mark.parametrize(
        "params", SCAN_CONFIGS, ids=[f"{p.sampling}-{p.mapping}" for p in SCAN_CONFIGS]
    )
    def test_scores_are_bitwise_equal(self, params, rng):
        noise = random_image(rng, 47, 43)
        # stripes code to few labels, so most template labels are absent
        stripes = texture_image("hstripes", 47, rng, noise=3)
        stripes = GrayImage(stripes.pixels[:43])
        grids = [(1, 1), (1, 4), (2, 3), (3, 3), (4, 2), (4, 4)]
        # Strides 1-8 cycle through the grids. The 31x29 windows have odd map
        # sides, so the block edge g is mostly 1; the 34x26 ones give g of 2
        # to 8 on one axis or both at most strides. Most pairs leave a
        # remainder cell.
        for k, window in enumerate([(31, 29), (34, 26)]):
            win_w, win_h = window
            crop = GrayImage(noise.pixels[5 : 5 + win_h, 6 : 6 + win_w])
            for stride in range(1, 9):
                grid = grids[(stride + 3 * k) % len(grids)]
                model = build_templates([("t", grid_descriptor(lbp_map(crop, params), *grid))])
                for scene in (noise, stripes):
                    want = scan_scores_oracle(scene, model, window, stride)
                    got = np.full(want.shape, np.nan)
                    for d in scan_detect(scene, model, window, stride):
                        got[d.y // stride, d.x // stride] = d.score
                    assert np.array_equal(got, want), (window, grid, stride)


class TestNmsMatchesGreedyOracle:
    @pytest.mark.parametrize("threshold", [0.0, 4 / 28, 0.3, 1.0])
    def test_random_boxes_with_tied_scores(self, threshold, rng):
        for _ in range(30):
            # widths and heights of 0 give boxes that meet nothing; two of
            # them at one place have union 0, which the IoU must not divide by
            boxes = [
                Detection(
                    int(rng.integers(0, 40)),
                    int(rng.integers(0, 40)),
                    int(rng.integers(0, 16)),
                    int(rng.integers(0, 16)),
                    float(rng.integers(0, 6)) / 4,
                )
                for _ in range(int(rng.integers(0, 60)))
            ]
            boxes += [Detection(3, 3, w, h, 0.0) for w, h in ((0, 4), (4, 0), (0, 0), (0, 0))]
            # diagonal neighbors on this 4x4-box lattice overlap at IoU exactly 4/28
            boxes += [
                Detection(2 * i, 2 * j, 4, 4, float(rng.integers(0, 3)))
                for i in range(4)
                for j in range(4)
            ]
            boxes = [boxes[i] for i in rng.permutation(len(boxes))]
            assert nms(boxes, threshold) == nms_oracle(boxes, threshold)


class TestLatticeSuppressMatchesSuppress:
    """The CLI's stencil NMS keeps exactly the boxes `_suppress` keeps."""

    @pytest.mark.parametrize("threshold", [0.0, 4 / 28, 0.3, 0.5, 1.0])
    def test_kept_indices_are_equal(self, threshold, rng):
        windows = [(7, 7), (12, 9), (16, 16), (9, 31), (24, 13), (32, 32)]
        for stride in range(1, 6):
            for window in (windows[stride - 1], windows[stride]):
                # a lattice of at most 18 x 18 positions keeps `_suppress`,
                # which is quadratic at IoU 1, fast
                ny, nx = (int(v) for v in rng.integers(1, 19, size=2))
                # few distinct scores, so most ranks are decided by scan order
                scores = rng.integers(0, 4, size=(ny, nx)) / 4
                for cutoff in (1.0, 0.25):
                    # all positions, and hits thinned by a score threshold
                    rows, cols = np.nonzero(scores <= cutoff)
                    order = np.lexsort((cols, rows, scores[rows, cols]))
                    rows, cols = rows[order], cols[order]
                    want = _suppress(cols * stride, rows * stride, *window, threshold)
                    got = _lattice_suppress(cols, rows, window, stride, threshold)
                    assert got.tolist() == want.tolist(), (stride, window, cutoff)

    def test_no_hits_and_bad_threshold(self):
        empty = np.zeros(0, dtype=np.intp)
        assert _lattice_suppress(empty, empty, (8, 8), 2, 0.3).tolist() == []
        with pytest.raises(ParameterError, match=r"iou threshold must lie in \[0, 1\]"):
            _lattice_suppress(empty, empty, (8, 8), 2, float("nan"))
