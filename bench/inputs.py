"""Seeded inputs for the benchmark workloads.

Everything the program reads is made here from the workload seed: mask
files (a mix of PGM and SSFM), optional global feature vectors and the
manifest. The program only ever sees the files. The same seed gives the
same bytes, and every grid can be regenerated in memory (``mask_grid``) so
the feature checks never depend on the program's own readers.

Masks are indoor-scene layouts at L=40 categories, in the spirit of NYU
Depth V2: a wall background, a floor band, a few class-specific objects,
small clutter objects of random categories, 1% speckle and, on three masks
out of four, void pixels (value 0) in a border frame and a patch. Every
fourth mask has no void pixels at all. The ``fusion`` workload paints the
three layouts of the program's split-information variant instead and adds
a global vector that names one of two groups, so only the two branches
together determine the class.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

NUM_CLASSES = 6
NUM_CATEGORIES = 40
VOID = 0
CLUTTER = tuple(range(27, NUM_CATEGORIES + 1))

# Per scene class: objects as (category, center_x, center_y, half_width,
# half_height), all normalized to the image. Classes differ in which
# categories appear and where, like bedroom / kitchen / living room /
# bathroom / office / dining room.
SCENES = (
    ((4, 0.50, 0.70, 0.30, 0.14), (5, 0.15, 0.45, 0.05, 0.10), (6, 0.88, 0.66, 0.07, 0.08),
     (7, 0.45, 0.55, 0.10, 0.04), (8, 0.50, 0.25, 0.12, 0.08)),
    ((9, 0.30, 0.20, 0.25, 0.12), (10, 0.35, 0.58, 0.30, 0.05), (11, 0.40, 0.52, 0.06, 0.03),
     (12, 0.85, 0.50, 0.10, 0.35), (13, 0.55, 0.68, 0.08, 0.10)),
    ((14, 0.40, 0.68, 0.28, 0.12), (15, 0.45, 0.84, 0.12, 0.05), (16, 0.80, 0.45, 0.10, 0.07),
     (17, 0.12, 0.45, 0.08, 0.30), (18, 0.75, 0.72, 0.06, 0.08)),
    ((19, 0.35, 0.80, 0.28, 0.10), (20, 0.80, 0.75, 0.07, 0.10), (11, 0.72, 0.48, 0.08, 0.04),
     (21, 0.72, 0.28, 0.10, 0.12), (22, 0.15, 0.40, 0.05, 0.12)),
    ((23, 0.50, 0.65, 0.30, 0.05), (18, 0.45, 0.80, 0.08, 0.10), (24, 0.50, 0.50, 0.10, 0.08),
     (25, 0.15, 0.35, 0.08, 0.20), (26, 0.82, 0.30, 0.12, 0.16)),
    ((15, 0.50, 0.72, 0.25, 0.08), (18, 0.18, 0.75, 0.06, 0.10), (18, 0.82, 0.75, 0.06, 0.10),
     (26, 0.50, 0.25, 0.20, 0.14), (5, 0.50, 0.08, 0.06, 0.06), (8, 0.12, 0.30, 0.07, 0.07)),
)
# Floor band height per class (bottom of the image, category 2); classes
# 1 and 3 also show a ceiling band (category 3).
FLOOR = (0.12, 0.15, 0.10, 0.14, 0.12, 0.10)
CEILING = (0.0, 0.08, 0.0, 0.10, 0.0, 0.0)


@dataclass(frozen=True)
class Layout:
    """Shape of one workload's dataset."""

    key: int               # mixes the workload into every per-sample seed
    height: int
    width: int
    per_class: int
    train_per_class: int
    global_width: int = 0  # > 0 only for the split-information data


LAYOUTS = {
    "ingest": Layout(key=1, height=480, width=640, per_class=12, train_per_class=8),
    "train-cnn": Layout(key=2, height=240, width=320, per_class=16, train_per_class=10),
    "fusion": Layout(key=3, height=240, width=320, per_class=40, train_per_class=28,
                     global_width=2048),
}


def _rng(seed: int, layout: Layout, cls: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, layout.key, cls, index]))


def _fill(grid: np.ndarray, category: int, x0: float, x1: float, y0: float, y1: float) -> None:
    h, w = grid.shape
    c0, c1 = int(round(max(x0, 0.0) * w)), int(round(min(x1, 1.0) * w))
    r0, r1 = int(round(max(y0, 0.0) * h)), int(round(min(y1, 1.0) * h))
    grid[r0 : max(r1, r0 + 1), c0 : max(c1, c0 + 1)] = category


def _jittered(rng: np.random.Generator, cx: float, cy: float, sx: float, sy: float):
    grow = rng.uniform(0.8, 1.2)
    cx += rng.uniform(-0.04, 0.04)
    cy += rng.uniform(-0.04, 0.04)
    return cx - sx * grow, cx + sx * grow, cy - sy * grow, cy + sy * grow


def _scene_grid(layout: Layout, cls: int, rng: np.random.Generator) -> np.ndarray:
    h, w = layout.height, layout.width
    grid = np.ones((h, w), dtype=np.uint16)  # wall
    if CEILING[cls]:
        _fill(grid, 3, 0.0, 1.0, 0.0, CEILING[cls] * rng.uniform(0.8, 1.2))
    _fill(grid, 2, 0.0, 1.0, 1.0 - FLOOR[cls] * rng.uniform(0.8, 1.2), 1.0)
    for cat, cx, cy, sx, sy in SCENES[cls]:
        _fill(grid, cat, *_jittered(rng, cx, cy, sx, sy))
    for _ in range(int(rng.integers(3, 7))):
        cat = int(rng.choice(CLUTTER))
        _fill(grid, cat, *_jittered(rng, rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9),
                                    rng.uniform(0.01, 0.05), rng.uniform(0.01, 0.05)))
    return grid


def _split_info_grid(layout: Layout, cls: int, rng: np.random.Generator) -> np.ndarray:
    # Imported here so that generating the other workloads' inputs needs no ssfx.
    from ssfx.data import split_information_spec

    spec = split_information_spec(height=layout.height, width=layout.width)
    grid = np.zeros((layout.height, layout.width), dtype=np.uint16)
    for blob in spec.recipes[cls].blobs:
        _fill(grid, blob.category, *_jittered(rng, blob.center_x, blob.center_y,
                                              blob.spread_x, blob.spread_y))
    return grid


def mask_grid(layout: Layout, seed: int, cls: int, index: int) -> np.ndarray:
    """The exact grid written for sample ``index`` of class ``cls``."""
    rng = _rng(seed, layout, cls, index)
    if layout.global_width:
        grid = _split_info_grid(layout, cls, rng)
    else:
        grid = _scene_grid(layout, cls, rng)
    h, w = grid.shape
    present = np.unique(grid[grid != VOID])
    n_speckle = h * w // 100
    flat = rng.integers(0, h * w, size=n_speckle)
    grid.ravel()[flat] = rng.choice(present, size=n_speckle)
    if index % 4 and not layout.global_width:
        frame = int(rng.integers(1, max(2, min(h, w) // 40) + 1))
        grid[:frame, :] = VOID
        grid[-frame:, :] = VOID
        grid[:, :frame] = VOID
        grid[:, -frame:] = VOID
        _fill(grid, VOID, *_jittered(rng, rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8), 0.04, 0.04))
    return grid


def global_vector(layout: Layout, seed: int, cls: int, index: int) -> np.ndarray:
    """Global feature vector of a split-information sample: its class's group
    mean plus Gaussian noise, with the program's documented scale and sigma."""
    from ssfx.data import split_information_spec

    spec = split_information_spec(global_width=layout.global_width, global_sigma=0.1)
    rng = np.random.default_rng(np.random.SeedSequence([seed, layout.key, cls, index, 1]))
    vec = spec.global_sigma * rng.standard_normal(layout.global_width)
    vec[spec.global_groups[cls]] += spec.global_scale
    return vec


def samples(layout: Layout):
    """(class, index, split) of every sample, in manifest order."""
    for cls in range(NUM_CLASSES):
        for index in range(layout.per_class):
            yield cls, index, "train" if index < layout.train_per_class else "test"


def write_inputs(workload: str, seed: int, out: Path) -> Path:
    """Write one workload's masks, global vectors and manifest; return the manifest path."""
    from ssfx import io
    from ssfx.data import DatasetManifest, ManifestEntry, save_manifest

    layout = LAYOUTS[workload]
    (out / "masks").mkdir(parents=True, exist_ok=True)
    if layout.global_width:
        (out / "global").mkdir(exist_ok=True)
    entries = []
    for n, (cls, index, split) in enumerate(samples(layout)):
        sid = f"c{cls}_s{index:03d}"
        mask_rel = f"masks/{sid}.{'pgm' if n % 2 == 0 else 'ssfm'}"
        io.save_mask(out / mask_rel, mask_grid(layout, seed, cls, index))
        global_rel = None
        if layout.global_width:
            global_rel = f"global/{sid}.ssff"
            io.write_feature_vector(out / global_rel, global_vector(layout, seed, cls, index))
        entries.append(ManifestEntry(id=sid, mask_path=mask_rel, label=cls, split=split,
                                     global_path=global_rel))
    manifest = DatasetManifest(num_classes=NUM_CLASSES, num_categories=NUM_CATEGORIES,
                               void_value=VOID, entries=entries, root=out,
                               global_source="synthetic" if layout.global_width else None)
    path = out / "dataset.manifest"
    save_manifest(manifest, path)
    return path
