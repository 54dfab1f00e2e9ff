"""End-to-end acceptance checks for the texture engine.

Each test covers one release criterion and prints a single PASS/FAIL line
with the measured numbers, so a plain run doubles as a short report
(run with -s to see the lines as they appear).
"""

import json
import math
import re
import time

import numpy as np

from lbpx import (
    BenchmarkResult,
    Detection,
    EvalReport,
    GrayImage,
    LbpParams,
    benchmark_fps,
    build_mapping,
    build_templates,
    distance,
    evaluate,
    grid_descriptor,
    integral_image,
    iou,
    label_count,
    lbp_code_3x3,
    lbp_code_circular,
    lbp_map,
    load_manifest_file,
    nms,
    region_sum,
    save_pgm_file,
    scan_detect,
)
from lbpx.cli import run_cli

from conftest import texture_image, write_texture_corpus


def verdict(ok, line):
    print(f"{'PASS' if ok else 'FAIL'}: {line}")
    return ok


def test_report_schema_surfaces_accuracy_and_fps(tmp_path, capsys):
    """The evaluation report carries accuracy and the benchmark carries fps.

    Headline accuracy/FPS claims for pipelines like this one are tied to a
    dataset, protocol, and hardware; absent those, the suite relies on the
    synthetic and property-based checks below, and this check pins the
    report surface that makes accuracy and throughput observable at all.
    The report is the document `lbpx evaluate` prints; its fps is null.
    """
    rng = np.random.default_rng(49)
    manifest_path = write_texture_corpus(tmp_path, rng, 1, 1, size=16)
    assert run_cli(["evaluate", "--manifest", str(manifest_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    bench_fields = set(BenchmarkResult.__dataclass_fields__)
    ok = {"accuracy", "confusion", "fps"} <= set(report) and {
        "fps",
        "ms_per_frame",
    } <= bench_fields
    assert verdict(ok, "report schema exposes accuracy, confusion, fps, ms_per_frame")


def test_synthetic_four_class_classification(tmp_path):
    """flat / v-stripes / h-stripes / checker at 64x64, 40+40 per class,
    noise amplitude 20: default pipeline reaches accuracy >= 0.95 in < 10 s."""
    rng = np.random.default_rng(64001)
    start = time.perf_counter()
    manifest_path = write_texture_corpus(
        tmp_path, rng, per_class_train=40, per_class_test=40, size=64
    )
    report = evaluate(
        load_manifest_file(manifest_path),
        LbpParams(),
        grid_rows=3,
        grid_cols=3,
        metric="chi2",
        base_dir=tmp_path,
    )
    elapsed = time.perf_counter() - start
    ok = report.accuracy >= 0.95 and elapsed < 10.0
    assert verdict(
        ok,
        f"synthetic 4-class accuracy {report.accuracy:.4f} "
        f"(n_test {report.n_test}) in {elapsed:.2f} s",
    ), (report.accuracy, elapsed)


def test_monotone_tone_remap_invariance():
    """100 random 32x32 images x 20 strictly increasing tone curves leave
    every square3x3 map unchanged.

    Source values stay within [0, 200] so a strictly increasing curve into
    [0, 255] has room to move; over the full 8-bit domain the only strictly
    increasing self-map is the identity and the check would be vacuous.
    """
    rng = np.random.default_rng(32001)
    params = LbpParams(mapping="raw")
    identical = 0
    total = 0
    for _ in range(100):
        img = GrayImage(rng.integers(0, 201, size=(32, 32), dtype=np.int64))
        baseline = lbp_map(img, params).labels
        for _ in range(20):
            lut = np.sort(rng.choice(256, size=201, replace=False)).astype(np.uint8)
            remapped = GrayImage(lut[img.pixels])
            total += 1
            if np.array_equal(lbp_map(remapped, params).labels, baseline):
                identical += 1
    ok = identical == total == 2000
    assert verdict(ok, f"monotone remap invariance {identical}/{total} maps identical")


def test_circular_sqrt2_matches_3x3_on_1000_patches():
    """The circular operator at P=8, R=sqrt(2) reproduces the 3x3 code
    bit-exactly on 1000 random patches."""
    rng = np.random.default_rng(18101)
    params = LbpParams(neighbors=8, radius=math.sqrt(2), sampling="circular", mapping="raw")
    matches = 0
    for _ in range(1000):
        patch = rng.integers(0, 256, size=(3, 3), dtype=np.int64)
        if lbp_code_circular(GrayImage(patch), 1, 1, params) == lbp_code_3x3(patch):
            matches += 1
    ok = matches == 1000
    assert verdict(ok, f"circular(8, sqrt2) == 3x3 on {matches}/1000 patches")


def test_mapping_cardinalities_by_enumeration():
    """u2 has 59 labels, riu2 has 10, raw has 256 for 8 neighbors, checked
    against a direct enumeration of all 256 circular bit strings."""

    def transitions(code):
        s = format(code, "08b")
        return sum(s[i] != s[(i + 1) % 8] for i in range(8))

    uniform_codes = sum(transitions(c) <= 2 for c in range(256))
    u2 = build_mapping(8, "u2")
    riu2 = build_mapping(8, "riu2")
    raw = build_mapping(8, "raw")
    checks = [
        uniform_codes == 58,
        u2.label_count == uniform_codes + 1 == 59,
        len(np.unique(u2.table)) == 59,
        label_count("u2", 8) == 59,
        riu2.label_count == 10,
        len(np.unique(riu2.table)) == 10,
        label_count("riu2", 8) == 10,
        raw.label_count == 256,
        len(np.unique(raw.table)) == 256,
        label_count("raw", 8) == 256,
    ]
    ok = all(checks)
    assert verdict(
        ok,
        f"mapping cardinalities u2={u2.label_count} riu2={riu2.label_count} "
        f"raw={raw.label_count} (58 uniform codes by enumeration)",
    ), checks


def test_integral_image_matches_brute_force_on_500_pairs():
    """region_sum equals direct summation on 500 random image/rectangle
    pairs, exactly."""
    rng = np.random.default_rng(50001)
    exact = 0
    for _ in range(500):
        w = int(rng.integers(1, 41))
        h = int(rng.integers(1, 41))
        img = GrayImage(rng.integers(0, 256, size=(h, w), dtype=np.int64))
        ii = integral_image(img)
        x0 = int(rng.integers(0, w))
        x1 = int(rng.integers(x0, w))
        y0 = int(rng.integers(0, h))
        y1 = int(rng.integers(y0, h))
        brute = int(img.pixels[y0 : y1 + 1, x0 : x1 + 1].astype(np.int64).sum())
        if region_sum(ii, x0, y0, x1, y1) == brute:
            exact += 1
    ok = exact == 500
    assert verdict(ok, f"integral image equals brute force on {exact}/500 rectangles")


def test_planted_patch_detected_in_19_of_20_scenes():
    """A trained 24x24 patch planted in 20 noise scenes is localized by the
    top post-suppression detection with IoU >= 0.5 in at least 19."""
    y, x = np.mgrid[0:24, 0:24]
    patch = GrayImage(np.where((x + y) % 2 == 0, 60, 180).astype(np.uint8))
    model = build_templates(
        [("target", grid_descriptor(lbp_map(patch, LbpParams()), 3, 3))]
    )
    hits_ok = 0
    for scene_index in range(20):
        rng = np.random.default_rng(90000 + scene_index)
        scene_px = rng.integers(100, 140, size=(64, 64), dtype=np.int64)
        px = int(rng.integers(0, 64 - 24 + 1))
        py = int(rng.integers(0, 64 - 24 + 1))
        scene_px[py : py + 24, px : px + 24] = patch.pixels
        scene = GrayImage(scene_px)
        detections = nms(scan_detect(scene, model, (24, 24), stride=4), 0.3)
        top = detections[0]
        if iou(top, Detection(px, py, 24, 24, 0.0)) >= 0.5:
            hits_ok += 1
    ok = hits_ok >= 19
    assert verdict(ok, f"planted patch localized in {hits_ok}/20 scenes (IoU >= 0.5)")


def test_distance_properties_on_1000_pairs():
    """On 1000 random normalized histogram pairs: chi2/l1/intersect are
    symmetric within 1e-12, non-negative, and zero on identical inputs;
    wchi2 with unit weights equals chi2 within 1e-12."""
    rng = np.random.default_rng(10001)
    unit_weights = np.ones(9)
    tol = 1e-12
    max_asym = 0.0
    max_self = 0.0
    min_value = np.inf
    max_wchi2_gap = 0.0
    for _ in range(1000):
        a = rng.random(9 * 59)
        b = rng.random(9 * 59)
        a /= a.sum()
        b /= b.sum()
        for metric in ("chi2", "l1", "intersect"):
            forward = distance(a, b, metric)
            backward = distance(b, a, metric)
            max_asym = max(max_asym, abs(forward - backward))
            min_value = min(min_value, forward)
            max_self = max(max_self, abs(distance(a, a, metric)))
        gap = abs(distance(a, b, "wchi2", weights=unit_weights) - distance(a, b, "chi2"))
        max_wchi2_gap = max(max_wchi2_gap, gap)
    ok = (
        max_asym <= tol
        and max_self <= tol
        and min_value >= -tol
        and max_wchi2_gap <= tol
    )
    assert verdict(
        ok,
        "distance properties on 1000 pairs: "
        f"max asymmetry {max_asym:.2e}, max self-distance {max_self:.2e}, "
        f"min value {min_value:.2e}, max wchi2-chi2 gap {max_wchi2_gap:.2e}",
    ), (max_asym, max_self, min_value, max_wchi2_gap)


def test_throughput_320x240_at_least_10_fps():
    """square3x3 raw mapping on 320x240 sustains at least 10 FPS on one
    thread; fps and ms/frame are reported."""
    rng = np.random.default_rng(24001)
    img = GrayImage(rng.integers(0, 256, size=(240, 320), dtype=np.int64))
    result = benchmark_fps(img, LbpParams(mapping="raw"), iterations=30)
    ok = result.fps >= 10.0
    assert verdict(
        ok,
        f"throughput {result.fps:.1f} fps ({result.ms_per_frame:.3f} ms/frame) "
        "on 320x240, square3x3 raw, 1 thread",
    ), result.fps


def test_cli_outputs_byte_identical_across_runs(tmp_path, capsys):
    """Every subcommand's output is byte-identical across two consecutive
    runs on the same inputs.

    For bench the two wall-clock fields (fps, ms_per_frame) are masked
    before comparison: the surrounding report must match byte for byte,
    but wall-clock time itself is not reproducible and is documented as
    reported-not-asserted run-to-run noise.
    """
    rng = np.random.default_rng(77001)
    manifest = write_texture_corpus(tmp_path, rng, 3, 2, size=32)
    sample = tmp_path / "checker_train_0.pgm"
    model_path = tmp_path / "model.json"
    assert run_cli(["train", "--manifest", str(manifest), "--output", str(model_path)]) == 0

    patch_manifest = tmp_path / "patch.csv"
    patch_manifest.write_text(
        "path,label,split\nchecker_train_0.pgm,target,train\n", encoding="utf-8"
    )
    patch_model = tmp_path / "patch_model.json"
    assert run_cli(
        ["train", "--manifest", str(patch_manifest), "--output", str(patch_model)]
    ) == 0
    scene = tmp_path / "scene.pgm"
    save_pgm_file(texture_image("checker", 48, rng), scene)
    capsys.readouterr()

    def stdout_of(argv):
        assert run_cli(argv) == 0, argv
        return capsys.readouterr().out

    def file_of(argv, path):
        assert run_cli(argv) == 0, argv
        return path.read_bytes()

    mismatches = []

    map_out = tmp_path / "map_out.pgm"
    map_argv = ["map", "--input", str(sample), "--output", str(map_out), "--mapping", "raw"]
    if file_of(map_argv, map_out) != file_of(map_argv, map_out):
        mismatches.append("map")

    for name, argv in [
        ("describe", ["describe", "--input", str(sample)]),
        ("train", ["train", "--manifest", str(manifest)]),
        ("classify", ["classify", "--model", str(model_path), "--input", str(sample)]),
        ("evaluate", ["evaluate", "--manifest", str(manifest)]),
        (
            "detect",
            ["detect", "--scene", str(scene), "--model", str(patch_model),
             "--window", "16x16", "--stride", "4"],
        ),
    ]:
        if stdout_of(argv) != stdout_of(argv):
            mismatches.append(name)

    bench_argv = ["bench", "--input", str(sample), "--iterations", "2", "--mapping", "raw"]
    timing = re.compile(r'"(fps|ms_per_frame)": \d+\.\d{6}')
    first, second = stdout_of(bench_argv), stdout_of(bench_argv)
    masked_pair = []
    for text in (first, second):
        masked, n_fields = timing.subn(r'"\1": <wall-clock>', text)
        if n_fields != 2:
            mismatches.append("bench-format")
        masked_pair.append(masked)
    if masked_pair[0] != masked_pair[1]:
        mismatches.append("bench")

    ok = not mismatches
    assert verdict(
        ok,
        "CLI determinism across two runs: map, describe, train, classify, "
        "evaluate, detect byte-identical; bench identical outside wall-clock fields"
        + ("" if ok else f" (mismatches: {mismatches})"),
    ), mismatches
