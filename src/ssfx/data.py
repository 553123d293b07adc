"""Dataset manifests, deterministic synthetic data, and batch iteration.

A manifest is a JSON-lines file. The first line is a header carrying the
dataset-wide facts (class count, category count, void value, optional
global-feature source tag); every following line binds one sample id to a
mask path, an optional global feature path, an integer label, and a split.
Paths are relative to the manifest's directory.

The synthetic generator paints axis-aligned category rectangles onto a void
background from per-class recipes, so the feature statistics each class
should exhibit are known in closed form. Noise jitters blob positions and
sizes and flips a fraction of pixels to random categories. All randomness
derives from the SynthSpec seed, per sample, so regenerating a dataset
reproduces every byte.
"""
from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .features import COLUMNS, extract_ssf
from .io import load_mask, read_feature_vector, save_mask, write_feature_vector
from .mask import SegmentationMask, ValidationError

__all__ = [
    "ManifestEntry",
    "DatasetManifest",
    "LoadedDataset",
    "BlobSpec",
    "ClassRecipe",
    "SynthSpec",
    "load_manifest",
    "save_manifest",
    "load_dataset",
    "shuffled_batches",
    "benchmark_spec",
    "split_information_spec",
    "recipe_targets",
    "generate_synthetic",
]

MANIFEST_KIND = "ssfx-manifest"
MANIFEST_VERSION = 1
SPLITS = ("train", "test")


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    mask_path: str
    label: int
    split: str
    global_path: str | None = None


@dataclass
class DatasetManifest:
    num_classes: int
    num_categories: int
    void_value: int | None
    entries: list[ManifestEntry]
    root: Path
    global_source: str | None = None

    def split_indices(self, split: str) -> np.ndarray:
        if split not in SPLITS:
            raise ValidationError(f"unknown split {split!r}; expected one of {SPLITS}")
        return np.array([i for i, e in enumerate(self.entries) if e.split == split], dtype=np.int64)


def save_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    path = Path(path)
    header = {
        "kind": MANIFEST_KIND,
        "version": MANIFEST_VERSION,
        "num_classes": manifest.num_classes,
        "num_categories": manifest.num_categories,
        "void_value": manifest.void_value,
        "global_source": manifest.global_source,
    }
    lines = [json.dumps(header, sort_keys=True)]
    for e in manifest.entries:
        lines.append(json.dumps({"id": e.id, "mask": e.mask_path, "global": e.global_path,
                                 "label": e.label, "split": e.split}, sort_keys=True))
    path.write_text("\n".join(lines) + "\n")


def _header_int(path: Path, header: dict, field: str, lowest: int) -> int:
    """The integer header field ``field``, which must be at least ``lowest``."""
    if field not in header:
        raise ValidationError(f"{path}: manifest header lacks {field}")
    value = header[field]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: {field} must be an integer, got {value!r}")
    if value < lowest:
        raise ValidationError(f"{path}: {field} must be >= {lowest}, got {value}")
    return value


def load_manifest(path: str | Path) -> DatasetManifest:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"manifest not found: {path}")
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines:
        raise ValidationError(f"{path}: empty manifest")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: unreadable manifest header: {exc}") from None
    if not isinstance(header, dict):
        raise ValidationError(f"{path}: manifest header must be a JSON object")
    if header.get("kind") != MANIFEST_KIND:
        raise ValidationError(f"{path}: not a dataset manifest (kind={header.get('kind')!r})")
    if header.get("version") != MANIFEST_VERSION:
        raise ValidationError(f"{path}: unsupported manifest version {header.get('version')}")
    num_classes = _header_int(path, header, "num_classes", 2)
    num_categories = _header_int(path, header, "num_categories", 1)
    void_value = header.get("void_value")
    if void_value is not None and (isinstance(void_value, bool) or not isinstance(void_value, int)):
        raise ValidationError(f"{path}: void_value must be an integer or null, got {void_value!r}")

    root = path.parent
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    has_global = None
    for lineno, ln in enumerate(lines[1:], start=2):
        try:
            rec = json.loads(ln)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}:{lineno}: unreadable entry: {exc}") from None
        if not isinstance(rec, dict):
            raise ValidationError(f"{path}:{lineno}: entry must be a JSON object")
        eid = rec.get("id")
        if not isinstance(eid, str) or not eid:
            raise ValidationError(f"{path}:{lineno}: entry id must be a non-empty string")
        if eid in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate entry id {eid!r}")
        seen.add(eid)
        label = rec.get("label")
        if not isinstance(label, int) or not 0 <= label < num_classes:
            raise ValidationError(f"{path}:{lineno}: label {label!r} out of range [0, {num_classes})")
        split = rec.get("split")
        if split not in SPLITS:
            raise ValidationError(f"{path}:{lineno}: split {split!r} not one of {SPLITS}")
        mask_rel = rec.get("mask")
        if not isinstance(mask_rel, str) or not (root / mask_rel).exists():
            raise ValidationError(f"{path}:{lineno}: missing mask file {mask_rel!r}")
        global_rel = rec.get("global")
        if global_rel is not None:
            if not (root / global_rel).exists():
                raise ValidationError(f"{path}:{lineno}: missing global feature file {global_rel!r}")
        if has_global is None:
            has_global = global_rel is not None
        elif has_global != (global_rel is not None):
            raise ValidationError(f"{path}:{lineno}: global feature paths must be present "
                                  f"for all entries or none")
        entries.append(ManifestEntry(id=eid, mask_path=mask_rel, label=label,
                                     split=split, global_path=global_rel))
    if not entries:
        raise ValidationError(f"{path}: manifest has no entries")
    return DatasetManifest(num_classes=num_classes, num_categories=num_categories,
                           void_value=void_value, entries=entries,
                           root=root, global_source=header.get("global_source"))


@dataclass
class LoadedDataset:
    """Feature matrices, optional global vectors, and labels, ready to train on."""

    ssf: np.ndarray                   # (N, L, 5)
    labels: np.ndarray                # (N,)
    train_idx: np.ndarray
    test_idx: np.ndarray
    num_classes: int
    num_categories: int
    global_vecs: np.ndarray | None = None
    manifest: DatasetManifest | None = None


def load_dataset(manifest: DatasetManifest, threads: int = 1) -> LoadedDataset:
    """Extract features for every manifest entry; ordering matches the manifest."""
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")

    def features_for(entry: ManifestEntry) -> np.ndarray:
        mask = load_mask(manifest.root / entry.mask_path, manifest.num_categories,
                         manifest.void_value)
        return extract_ssf(mask).values

    if threads == 1:
        rows = [features_for(e) for e in manifest.entries]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(features_for, manifest.entries))
    ssf = np.stack(rows)

    global_vecs = None
    if manifest.entries[0].global_path is not None:
        vecs = [read_feature_vector(manifest.root / e.global_path) for e in manifest.entries]
        widths = {v.shape[0] for v in vecs}
        if len(widths) != 1:
            raise ValidationError(f"global feature widths differ across the manifest: {sorted(widths)}")
        global_vecs = np.stack(vecs)

    labels = np.array([e.label for e in manifest.entries], dtype=np.int64)
    return LoadedDataset(ssf=ssf, labels=labels,
                         train_idx=manifest.split_indices("train"),
                         test_idx=manifest.split_indices("test"),
                         num_classes=manifest.num_classes,
                         num_categories=manifest.num_categories,
                         global_vecs=global_vecs, manifest=manifest)


def shuffled_batches(indices: np.ndarray, batch_size: int, seed: int, epoch: int
                     ) -> list[np.ndarray]:
    """Deterministic per-epoch shuffle of the given indices, cut into batches.

    The final short batch is kept. The order depends only on (seed, epoch).
    """
    if batch_size < 1:
        raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(epoch)]))
    order = rng.permutation(len(indices))
    shuffled = np.asarray(indices)[order]
    return [shuffled[i : i + batch_size] for i in range(0, len(shuffled), batch_size)]


# --- synthetic data ---------------------------------------------------------


@dataclass(frozen=True)
class BlobSpec:
    """One axis-aligned rectangle: category painted at a normalized center
    with normalized half-extents (spread_x, spread_y)."""

    category: int
    center_x: float
    center_y: float
    spread_x: float
    spread_y: float

    def bounds(self) -> tuple[float, float, float, float]:
        return (self.center_x - self.spread_x, self.center_x + self.spread_x,
                self.center_y - self.spread_y, self.center_y + self.spread_y)


@dataclass(frozen=True)
class ClassRecipe:
    blobs: tuple[BlobSpec, ...]


@dataclass(frozen=True)
class SynthSpec:
    """Everything needed to regenerate a synthetic dataset byte-for-byte."""

    num_classes: int
    num_categories: int
    height: int
    width: int
    recipes: tuple[ClassRecipe, ...]
    samples_per_class: int
    noise: float
    seed: int
    train_fraction: float = 0.7
    global_width: int = 0
    global_groups: tuple[int, ...] | None = None  # class -> Gaussian mean group
    global_sigma: float = 0.25
    global_scale: float = 2.0

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValidationError(f"num_classes must be >= 2, got {self.num_classes}")
        if len(self.recipes) != self.num_classes:
            raise ValidationError(f"{len(self.recipes)} recipes for {self.num_classes} classes")
        if not 0.0 <= self.noise < 1.0:
            raise ValidationError(f"noise must lie in [0, 1), got {self.noise}")
        if self.samples_per_class < 1:
            raise ValidationError("samples_per_class must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValidationError(f"train_fraction must lie in (0, 1), got {self.train_fraction}")
        if self.global_groups is not None:
            if self.global_width < 1:
                raise ValidationError("global_groups given but global_width is 0")
            if len(self.global_groups) != self.num_classes:
                raise ValidationError("global_groups must map every class to a group")
            if max(self.global_groups) >= self.global_width:
                raise ValidationError("group index exceeds global vector width")
        for cls, recipe in enumerate(self.recipes):
            if not recipe.blobs:
                raise ValidationError(f"class {cls} recipe has no blobs")
            for blob in recipe.blobs:
                if not 1 <= blob.category <= self.num_categories:
                    raise ValidationError(f"class {cls} paints category {blob.category}, "
                                          f"outside [1, {self.num_categories}]")
                x0, x1, y0, y1 = blob.bounds()
                if x0 < 0 or x1 > 1 or y0 < 0 or y1 > 1:
                    raise ValidationError(f"class {cls} blob for category {blob.category} "
                                          f"exceeds the image: bounds {blob.bounds()}")
                if 2 * blob.spread_x * self.width < 1 or 2 * blob.spread_y * self.height < 1:
                    raise ValidationError(f"class {cls} blob for category {blob.category} "
                                          f"paints no pixels at {self.height}x{self.width}")
            for a in range(len(recipe.blobs)):
                for b in range(a + 1, len(recipe.blobs)):
                    if _blobs_overlap(recipe.blobs[a], recipe.blobs[b]):
                        raise ValidationError(f"class {cls} blobs {a} and {b} overlap; "
                                              f"recipe targets would be wrong")
        # Classes must be distinguishable by layout or, failing that, by
        # their global-vector group.
        seen: dict[tuple, int] = {}
        for cls, recipe in enumerate(self.recipes):
            group = self.global_groups[cls] if self.global_groups is not None else None
            key = (recipe, group)
            if key in seen:
                raise ValidationError(f"classes {seen[key]} and {cls} share both layout "
                                      f"recipe and global group")
            seen[key] = cls


def _blobs_overlap(a: BlobSpec, b: BlobSpec) -> bool:
    ax0, ax1, ay0, ay1 = a.bounds()
    bx0, bx1, by0, by1 = b.bounds()
    return ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1


def recipe_targets(spec: SynthSpec) -> np.ndarray:
    """Closed-form expected feature rows: (num_classes, L, 5).

    A painted rectangle with half-extents (sx, sy) covers 4*sx*sy of the
    image, is centered at its center coordinates, and spreads uniformly, so
    its positional std is spread/sqrt(3) per axis.
    """
    out = np.zeros((spec.num_classes, spec.num_categories, len(COLUMNS)))
    for cls, recipe in enumerate(spec.recipes):
        for blob in recipe.blobs:
            row = blob.category - 1
            out[cls, row] = (4.0 * blob.spread_x * blob.spread_y,
                            blob.center_x, blob.center_y,
                            blob.spread_x / math.sqrt(3.0),
                            blob.spread_y / math.sqrt(3.0))
    return out


def _paint(grid: np.ndarray, blob: BlobSpec, h: int, w: int) -> None:
    # A cell is painted when its center falls inside the rectangle.
    x0, x1, y0, y1 = blob.bounds()
    cols_c = (np.arange(w) + 0.5) / w
    rows_c = (np.arange(h) + 0.5) / h
    cols = np.nonzero((cols_c >= x0) & (cols_c < x1))[0]
    rows = np.nonzero((rows_c >= y0) & (rows_c < y1))[0]
    grid[np.ix_(rows, cols)] = blob.category


def _sample_mask(spec: SynthSpec, cls: int, rng: np.random.Generator) -> np.ndarray:
    h, w = spec.height, spec.width
    grid = np.zeros((h, w), dtype=np.uint16)
    for blob in spec.recipes[cls].blobs:
        if spec.noise > 0:
            jitter = 0.2 * spec.noise
            dx = rng.uniform(-jitter, jitter)
            dy = rng.uniform(-jitter, jitter)
            grow = 1.0 + rng.uniform(-0.5, 0.5) * spec.noise
            sx = min(blob.spread_x * grow, 0.5)
            sy = min(blob.spread_y * grow, 0.5)
            cx = min(max(blob.center_x + dx, sx), 1.0 - sx)
            cy = min(max(blob.center_y + dy, sy), 1.0 - sy)
            blob = BlobSpec(blob.category, cx, cy, sx, sy)
        _paint(grid, blob, h, w)
    if spec.noise > 0:
        n_flip = int(round(0.25 * spec.noise * h * w))
        if n_flip:
            flat = rng.choice(h * w, size=n_flip, replace=False)
            grid.ravel()[flat] = rng.integers(1, spec.num_categories + 1, size=n_flip)
    return grid


def _sample_global(spec: SynthSpec, cls: int, rng: np.random.Generator) -> np.ndarray:
    group = spec.global_groups[cls] if spec.global_groups is not None else cls % spec.global_width
    mean = np.zeros(spec.global_width)
    mean[group] = spec.global_scale
    return mean + spec.global_sigma * rng.standard_normal(spec.global_width)


def generate_synthetic(spec: SynthSpec, out_dir: str | Path) -> Path:
    """Write masks, optional global vectors, and the manifest; returns the manifest path."""
    out = Path(out_dir)
    (out / "masks").mkdir(parents=True, exist_ok=True)
    if spec.global_width:
        (out / "global").mkdir(parents=True, exist_ok=True)

    n_train = round(spec.train_fraction * spec.samples_per_class)
    if n_train == 0 or n_train == spec.samples_per_class:
        raise ValidationError(f"train fraction {spec.train_fraction} leaves an empty split "
                              f"at {spec.samples_per_class} samples per class")
    entries: list[ManifestEntry] = []
    for cls in range(spec.num_classes):
        for s in range(spec.samples_per_class):
            rng = np.random.default_rng(np.random.SeedSequence([spec.seed, cls, s]))
            eid = f"c{cls}_s{s:04d}"
            mask_rel = f"masks/{eid}.ssfm"
            save_mask(out / mask_rel, _sample_mask(spec, cls, rng))
            global_rel = None
            if spec.global_width:
                global_rel = f"global/{eid}.ssff"
                write_feature_vector(out / global_rel, _sample_global(spec, cls, rng))
            entries.append(ManifestEntry(
                id=eid, mask_path=mask_rel, label=cls,
                split="train" if s < n_train else "test", global_path=global_rel))

    manifest = DatasetManifest(num_classes=spec.num_classes,
                               num_categories=spec.num_categories,
                               void_value=0, entries=entries, root=out,
                               global_source="synthetic" if spec.global_width else None)
    manifest_path = out / "dataset.manifest"
    save_manifest(manifest, manifest_path)
    return manifest_path


def benchmark_recipes() -> tuple[ClassRecipe, ...]:
    """Six classes over 8 categories, engineered so no single statistic group
    separates everything.

    All classes share a floor strip (category 1). Classes 0/1 move the same
    two blobs around (counts and spreads identical, positions differ);
    classes 2/3 resize blobs in place (positions identical, counts and
    spreads differ); classes 4/5 trade horizontal for vertical strips
    (counts identical, positions and spreads differ).
    """
    floor = BlobSpec(1, 0.50, 0.94, 0.50, 0.06)
    return (
        ClassRecipe((floor, BlobSpec(2, 0.25, 0.25, 0.10, 0.10), BlobSpec(3, 0.70, 0.60, 0.18, 0.18))),
        ClassRecipe((floor, BlobSpec(2, 0.75, 0.25, 0.10, 0.10), BlobSpec(3, 0.30, 0.60, 0.18, 0.18))),
        ClassRecipe((floor, BlobSpec(4, 0.50, 0.40, 0.22, 0.22), BlobSpec(5, 0.20, 0.70, 0.08, 0.08))),
        ClassRecipe((floor, BlobSpec(4, 0.50, 0.40, 0.10, 0.10), BlobSpec(5, 0.20, 0.70, 0.16, 0.16))),
        ClassRecipe((floor, BlobSpec(6, 0.25, 0.44, 0.10, 0.34), BlobSpec(7, 0.75, 0.44, 0.10, 0.34))),
        ClassRecipe((floor, BlobSpec(6, 0.50, 0.22, 0.34, 0.10), BlobSpec(7, 0.50, 0.66, 0.34, 0.10))),
    )


def benchmark_spec(samples_per_class: int = 100, noise: float = 0.1, seed: int = 7,
                   height: int = 32, width: int = 32, global_width: int = 16,
                   global_sigma: float = 0.25) -> SynthSpec:
    """The 6-class benchmark; global vectors fully identify the class."""
    return SynthSpec(num_classes=6, num_categories=8, height=height, width=width,
                     recipes=benchmark_recipes(), samples_per_class=samples_per_class,
                     noise=noise, seed=seed, global_width=global_width,
                     global_sigma=global_sigma)


def split_information_spec(samples_per_class: int = 100, noise: float = 0.1, seed: int = 7,
                           height: int = 32, width: int = 32, global_width: int = 16,
                           global_sigma: float = 0.25) -> SynthSpec:
    """Six classes where the mask determines only one of three layouts and the
    global vector only one of two groups; neither branch alone can exceed
    60% accuracy, together they determine the class exactly."""
    base = benchmark_recipes()
    layouts = (base[0], base[2], base[4])
    recipes = tuple(layouts[cls % 3] for cls in range(6))
    groups = tuple(cls // 3 for cls in range(6))
    return SynthSpec(num_classes=6, num_categories=8, height=height, width=width,
                     recipes=recipes, samples_per_class=samples_per_class, noise=noise,
                     seed=seed, global_width=global_width, global_groups=groups,
                     global_sigma=global_sigma)
