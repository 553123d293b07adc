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
    column, so one unweighted bincount gives the (h, L+1) category-by-row
    histogram and a second the (w, L+1) category-by-column histogram. Counts,
    means and the two-pass variance sum((pos - mean)^2) / count are then
    computed over the h and w bins of each category present instead of the
    h*w pixels.
    """
    h, w, L = mask.height, mask.width, mask.num_categories
    vals = mask.category_values()
    span = L + 1  # bin 0 collects void pixels and is dropped
    # vals already lies in 0..L, so the unsafe cast cannot change a value.
    index = np.empty((h, w), dtype=np.intp)
    np.add(vals, np.arange(0, h * span, span)[:, None], out=index, casting="unsafe")
    by_row = np.bincount(index.ravel(), minlength=h * span).reshape(h, span)
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
