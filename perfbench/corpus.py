"""Seeded synthetic inputs for the benchmark: texture corpus, scenes, manifests.

Everything here is plain numpy and writes PGM bytes itself, so the inputs do
not depend on the program under test. The same seed and sizes give
byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Six texture families that differ in local structure, not in orientation, so
# they stay separable under both the oriented u2 operator and the rotation
# invariant riu2 one.
TEXTURE_CLASSES = ("blobs", "checker", "dots", "noise", "stripes", "terraces")


@dataclass(frozen=True)
class Sizes:
    texture_side: int = 256
    train_per_class: int = 10
    test_per_class: int = 10
    scene_width: int = 320
    scene_height: int = 240
    scenes: int = 8
    targets_per_scene: int = 3
    target_side: int = 32
    target_crops: int = 16
    # planted targets sit on this lattice, so a stride that divides it
    # scores the exact target window
    target_step: int = 4


FULL = Sizes()
TINY = Sizes(
    texture_side=48,
    train_per_class=2,
    test_per_class=2,
    scene_width=112,
    scene_height=96,
    scenes=2,
    target_crops=4,
)


@dataclass(frozen=True)
class Texture:
    manifest: Path
    cold_manifest: Path  # the first train and test image of each class, for cold-start probes
    train: tuple[tuple[Path, str], ...]
    test: tuple[tuple[Path, str], ...]


@dataclass(frozen=True)
class Scene:
    path: Path
    width: int
    height: int
    targets: tuple[tuple[int, int], ...]  # top-left corners of planted patches


@dataclass(frozen=True)
class SceneSet:
    manifest: Path  # one-class train manifest of target crops
    scenes: tuple[Scene, ...]
    window: int
    cold_scene: Scene  # a small noise scene, for cold-start probes


def pgm_bytes(pixels: np.ndarray) -> bytes:
    h, w = pixels.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.astype(np.uint8).tobytes()


def _to_u8(values: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(values), 0, 255).astype(np.uint8)


def _box_blur(values: np.ndarray, k: int) -> np.ndarray:
    pad = np.pad(values, k, mode="wrap")
    c = np.cumsum(np.cumsum(pad, axis=0), axis=1)
    c = np.pad(c, ((1, 0), (1, 0)))
    n = 2 * k + 1
    h, w = values.shape
    s = c[n : n + h, n : n + w] - c[:h, n : n + w] - c[n : n + h, :w] + c[:h, :w]
    return s / (n * n)


def texture(kind: str, side: int, rng: np.random.Generator) -> np.ndarray:
    y, x = np.mgrid[0:side, 0:side].astype(np.float64)
    if kind == "noise":
        base = 128 + rng.normal(0, 45, (side, side))
    elif kind == "blobs":
        smooth = _box_blur(rng.normal(0, 1, (side, side)), 3)
        base = 128 + 60 * smooth / smooth.std() + rng.normal(0, 3, (side, side))
    elif kind == "stripes":
        period = rng.uniform(10, 14)
        base = 128 + 60 * np.sin(2 * np.pi * y / period + rng.uniform(0, 2 * np.pi))
        base += rng.normal(0, 4, (side, side))
    elif kind == "checker":
        cell = int(rng.integers(6, 9))
        ox, oy = rng.integers(0, cell, 2)
        parity = ((x + ox) // cell + (y + oy) // cell) % 2
        base = 70 + 120 * parity + rng.normal(0, 6, (side, side))
    elif kind == "dots":
        base = 60 + rng.normal(0, 2, (side, side))
        base[rng.random((side, side)) < 0.03] = 220
    elif kind == "terraces":
        smooth = _box_blur(rng.normal(0, 1, (side, side)), 6)
        base = 50 + 50 * np.floor(4 * (smooth - smooth.min()) / np.ptp(smooth))
        base += rng.normal(0, 1.5, (side, side))
    else:
        raise ValueError(f"unknown texture class {kind!r}")
    return _to_u8(base)


def _target(side: int, rng: np.random.Generator) -> np.ndarray:
    # the detection target: a wrapped diagonal ramp with a random phase and
    # light noise. Neighbouring pixels differ by far more than the noise, so
    # its LBP codes are structured where the noise background's are not.
    y, x = np.mgrid[0:side, 0:side].astype(np.float64)
    ramp = (37 * x + 91 * y + rng.integers(0, 256)) % 256
    return _to_u8(20 + 0.8 * ramp + rng.normal(0, 2, (side, side)))


def _write(path: Path, pixels: np.ndarray) -> Path:
    path.write_bytes(pgm_bytes(pixels))
    return path


def _write_manifest(path: Path, rows) -> Path:
    lines = ["path,label,split"] + [f"{p.name},{label},{split}" for p, label, split in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def make_textures(out: Path, seed: int, sizes: Sizes = FULL) -> Texture:
    """Six classes, `train_per_class` + `test_per_class` square P5 images each."""
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for ci, kind in enumerate(TEXTURE_CLASSES):
        for split, count in (("train", sizes.train_per_class), ("test", sizes.test_per_class)):
            for i in range(count):
                rng = np.random.default_rng([seed, 1, ci, split == "test", i])
                path = _write(out / f"{kind}_{split}_{i}.pgm", texture(kind, sizes.texture_side, rng))
                rows.append((path, kind, split))
    manifest = _write_manifest(out / "manifest.csv", rows)
    cold = [row for row in rows if row[0].stem.rsplit("_", 1)[1] == "0"]
    return Texture(
        manifest=manifest,
        cold_manifest=_write_manifest(out / "cold.csv", cold),
        train=tuple((p, k) for p, k, s in rows if s == "train"),
        test=tuple((p, k) for p, k, s in rows if s == "test"),
    )


def _place_targets(rng: np.random.Generator, sizes: Sizes) -> tuple[tuple[int, int], ...]:
    side, step = sizes.target_side, sizes.target_step
    lattice = [
        (int(x), int(y))
        for y in range(0, sizes.scene_height - side + 1, step)
        for x in range(0, sizes.scene_width - side + 1, step)
    ]
    gap = side + side // 2  # far enough apart that NMS never merges two targets
    for _ in range(100):  # start over when the first picks leave no room for the rest
        placed: list[tuple[int, int]] = []
        for _ in range(sizes.targets_per_scene):
            free = [
                (x, y) for x, y in lattice if all(abs(x - px) >= gap or abs(y - py) >= gap for px, py in placed)
            ]
            if not free:
                break
            placed.append(free[int(rng.integers(len(free)))])
        if len(placed) == sizes.targets_per_scene:
            return tuple(placed)
    raise ValueError(f"no room for {sizes.targets_per_scene} separated targets in the scene")


def make_scenes(out: Path, seed: int, sizes: Sizes = FULL) -> SceneSet:
    """Noise scenes with planted target patches, plus a crop manifest to train on."""
    out.mkdir(parents=True, exist_ok=True)
    side = sizes.target_side
    crops = []
    for i in range(sizes.target_crops):
        rng = np.random.default_rng([seed, 2, i])
        crops.append((_write(out / f"target_{i}.pgm", _target(side, rng)), "target", "train"))
    manifest = _write_manifest(out / "targets.csv", crops)
    scenes = []
    for i in range(sizes.scenes):
        rng = np.random.default_rng([seed, 3, i])
        w, h = sizes.scene_width, sizes.scene_height
        pixels = _to_u8(128 + rng.normal(0, 30, (h, w)))
        targets = _place_targets(rng, sizes)
        for x, y in targets:
            pixels[y : y + side, x : x + side] = _target(side, rng)
        scenes.append(Scene(_write(out / f"scene_{i}.pgm", pixels), w, h, targets))
    rng = np.random.default_rng([seed, 4])
    cold = _write(out / "cold_scene.pgm", _to_u8(128 + rng.normal(0, 30, (2 * side, 2 * side))))
    return SceneSet(manifest, tuple(scenes), side, Scene(cold, 2 * side, 2 * side, ()))
