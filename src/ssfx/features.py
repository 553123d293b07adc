"""Per-category layout statistics extracted from segmentation masks.

For each category present in a mask, five statistics are computed: the
fraction of pixels covered, the mean column/row of those pixels, and the
population standard deviation of column/row. Positions are 1-based during
accumulation and normalized by the mask width (x) or height (y), so every
entry lands in [0, 1] and is comparable across mask sizes. Categories with
zero pixels get an all-zero row.

Extraction is separable: every statistic depends on a pixel's row or its
column, never on both, so it is computed from a category-by-row and a
category-by-column histogram of the mask rather than from per-pixel
weights. The histograms take 8*(h+w)*(L+1) bytes; the index buffer they
are counted from takes 8*h*w bytes.

The column histogram is counted in one row-major pass. The row histogram
is counted in strips of rows, each strip read column by column: neighbours
in a row usually share a category, so in row order each count waits on the
one before it to the same bin, while down a column the counts go to
different rows' bins. The counts are integers, so the order changes no bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mask import SegmentationMask, ValidationError

__all__ = [
    "COLUMNS",
    "FeatureSubset",
    "SsfMatrix",
    "extract_ssf",
    "select_subset",
]

# Canonical column order of the feature matrix.
COLUMNS = ("pc", "mu_x", "mu_y", "sigma_x", "sigma_y")

# Pixels per strip of the row histogram's count. Every strip is counted
# from the first 512 KiB of the index buffer, which stays in a 2 MiB L2.
# Timed on one thread against strips of 2**14 to 2**20 pixels at L=40,
# 2**16 was within 1% of the fastest on 480x640, 224x224 and 1000x1000, and
# within 12% on 2048x512 and 512x2048; 2**20 took up to 1.42x its time.
STRIP_PIXELS = 2**16


@dataclass(frozen=True)
class FeatureSubset:
    """Which statistic groups to keep: counts (pc), means (ap), deviations (sd)."""

    pc: bool = True
    ap: bool = True
    sd: bool = True

    def __post_init__(self) -> None:
        if not (self.pc or self.ap or self.sd):
            raise ValidationError("feature subset must enable at least one group")

    @classmethod
    def parse(cls, text: str) -> "FeatureSubset":
        """Parse a comma-separated group list such as ``"pc,ap"``."""
        picked = {"pc": False, "ap": False, "sd": False}
        for token in text.split(","):
            token = token.strip().lower()
            if token not in picked:
                raise ValidationError(f"unknown feature group {token!r}; expected pc, ap, sd")
            picked[token] = True
        return cls(**picked)

    @property
    def num_columns(self) -> int:
        return (1 if self.pc else 0) + (2 if self.ap else 0) + (2 if self.sd else 0)

    def column_indices(self) -> tuple[int, ...]:
        """Indices into the canonical column order, ascending."""
        idx: list[int] = []
        if self.pc:
            idx.append(0)
        if self.ap:
            idx.extend((1, 2))
        if self.sd:
            idx.extend((3, 4))
        return tuple(idx)

    def label(self) -> str:
        if self.pc and self.ap and self.sd:
            return "SSFs"
        return "&".join(
            name for name, on in (("PC", self.pc), ("AP", self.ap), ("SD", self.sd)) if on
        )

    def spec_string(self) -> str:
        return ",".join(
            name for name, on in (("pc", self.pc), ("ap", self.ap), ("sd", self.sd)) if on
        )


@dataclass(frozen=True)
class SsfMatrix:
    """L x 5 feature matrix plus the raw per-category pixel counts."""

    values: np.ndarray
    raw_counts: np.ndarray
    num_categories: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        counts = np.asarray(self.raw_counts, dtype=np.int64)
        if values.shape != (self.num_categories, len(COLUMNS)):
            raise ValidationError(
                f"feature matrix shape {values.shape} does not match "
                f"({self.num_categories}, {len(COLUMNS)})"
            )
        if counts.shape != (self.num_categories,):
            raise ValidationError(f"raw_counts shape {counts.shape} does not match ({self.num_categories},)")
        values.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "raw_counts", counts)

    @property
    def pc(self) -> np.ndarray:
        return self.values[:, 0]

    @property
    def mu_x(self) -> np.ndarray:
        return self.values[:, 1]

    @property
    def mu_y(self) -> np.ndarray:
        return self.values[:, 2]

    @property
    def sigma_x(self) -> np.ndarray:
        return self.values[:, 3]

    @property
    def sigma_y(self) -> np.ndarray:
        return self.values[:, 4]


def extract_ssf(mask: SegmentationMask) -> SsfMatrix:
    """Extract the full L x 5 feature matrix from two small histograms.

    Each pixel's position enters the statistics only through its row or its
    column, so unweighted bincounts give the (h, L+1) category-by-row
    histogram and the (w, L+1) category-by-column histogram. Counts,
    means and the two-pass variance sum((pos - mean)^2) / count are then
    computed over the h and w bins of each category present instead of the
    h*w pixels. The row histogram is counted in strips of at most
    ``STRIP_PIXELS`` pixels, column by column within a strip, so that
    neighbouring pixels of one category do not increment one bin in turn.
    """
    h, w, L = mask.height, mask.width, mask.num_categories
    vals = mask.category_values()
    span = L + 1  # bin 0 collects void pixels and is dropped
    # vals already lies in 0..L, so the unsafe cast cannot change a value.
    index = np.empty((h, w), dtype=np.intp)
    # Each strip's bins, column by column, go to the start of the index,
    # which the next strip then finds in cache.
    by_row = np.empty((h, span), dtype=np.intp)
    rows = max(1, STRIP_PIXELS // w)
    for r0 in range(0, h, rows):
        r1 = min(r0 + rows, h)
        strip = index.reshape(-1)[: (r1 - r0) * w].reshape(w, r1 - r0)
        np.add(vals[r0:r1].T, np.arange(0, (r1 - r0) * span, span), out=strip, casting="unsafe")
        by_row[r0:r1] = np.bincount(strip.ravel(), minlength=(r1 - r0) * span).reshape(-1, span)
    np.add(vals, np.arange(0, w * span, span), out=index, casting="unsafe")
    by_col = np.bincount(index.ravel(), minlength=w * span).reshape(w, span)

    counts = by_row[:, 1:].sum(axis=0)
    present = np.flatnonzero(counts)
    n = counts[present]
    values = np.zeros((L, len(COLUMNS)))
    values[:, 0] = counts / float(h * w)
    for col, hist, side in ((1, by_col, w), (2, by_row, h)):
        hist = hist[:, present + 1]  # absent categories keep all-zero rows
        pos = np.arange(1.0, side + 1.0)
        mean = pos @ hist / n
        var = (hist * (pos[:, None] - mean) ** 2).sum(axis=0) / n
        values[present, col] = mean / side
        values[present, col + 2] = np.sqrt(var) / side
    return SsfMatrix(values=values, raw_counts=counts, num_categories=L)


def select_subset(matrix: SsfMatrix, subset: FeatureSubset) -> np.ndarray:
    """L x k column selection in canonical order; k = subset.num_columns."""
    return matrix.values[:, list(subset.column_indices())]
