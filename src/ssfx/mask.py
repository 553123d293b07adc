"""Segmentation mask container and validation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Upper bound on mask side length. Feature extraction sums count * position
# over a category's histogram bins; those sums stay at most h*w*max(h, w),
# which is 2**42 at 16384 x 16384, so they are exact in f64. Extraction holds
# at most two per-pixel buffers at once: an intp index of 8*h*w bytes and,
# when the void value is nonzero, the remapped copy of the grid that
# ``category_values`` returns, itemsize*h*w bytes. At 16384 x 16384 that is
# 2 GiB, plus 0.5 GiB for a uint16 grid. The h*w-byte boolean that makes the
# copy is freed before the index is allocated; everything else extraction
# allocates scales with (h+w)*(L+1). That is per call: on large masks
# ``data.map_masks`` makes two calls at once, so ``load_dataset`` and
# ``ssfx extract`` can hold twice these buffers, and two masks.
MAX_SIDE = 16384


class ValidationError(ValueError):
    """An input violates a documented invariant."""


@dataclass(frozen=True)
class SegmentationMask:
    """An h x w grid of per-pixel category indices.

    Valid pixel values are ``1..num_categories`` plus the optional
    ``void_value`` sentinel for unlabeled pixels. ``void_value`` must lie
    outside ``[1, num_categories]``; pass ``None`` to forbid unlabeled
    pixels entirely. The grid is copied and frozen on construction.
    """

    data: np.ndarray
    num_categories: int
    void_value: int | None = 0

    def __post_init__(self) -> None:
        grid = np.asarray(self.data)
        if grid.ndim != 2:
            raise ValidationError(f"mask must be 2-D, got shape {grid.shape}")
        if not np.issubdtype(grid.dtype, np.integer):
            raise ValidationError(f"mask values must be integers, got dtype {grid.dtype}")
        h, w = grid.shape
        if h < 1 or w < 1:
            raise ValidationError(f"mask dimensions must be positive, got {h}x{w}")
        if h > MAX_SIDE or w > MAX_SIDE:
            raise ValidationError(f"mask dimensions {h}x{w} exceed supported maximum {MAX_SIDE}")
        if self.num_categories < 1:
            raise ValidationError(f"num_categories must be >= 1, got {self.num_categories}")
        if self.void_value is not None and 1 <= self.void_value <= self.num_categories:
            raise ValidationError(
                f"void_value {self.void_value} falls inside the category range "
                f"[1, {self.num_categories}]"
            )

        # Two reductions settle the common grids: every value in 1..L, or in
        # 0..L with void 0. Any other grid takes the elementwise scan, which
        # finds a nonzero void value and names the first invalid pixel.
        lo, hi = int(grid.min()), int(grid.max())
        in_range = hi <= self.num_categories and (lo >= 1 or (lo == 0 and self.void_value == 0))
        if not in_range:
            valid = (grid >= 1) & (grid <= self.num_categories)
            if self.void_value is not None:
                valid |= grid == self.void_value
            if not valid.all():
                flat = int(np.argmax(~valid.ravel()))
                r, c = divmod(flat, w)
                raise ValidationError(
                    f"invalid category value {int(grid[r, c])} at pixel index {flat} "
                    f"(row {r}, col {c}); expected void={self.void_value} or 1..{self.num_categories}"
                )

        grid = grid.copy()
        grid.setflags(write=False)
        object.__setattr__(self, "data", grid)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    def category_values(self) -> np.ndarray:
        """Grid with void remapped to 0, so values are 0 (void) or 1..L."""
        if self.void_value is None or self.void_value == 0:
            return self.data
        return np.where(self.data == self.void_value, 0, self.data)
