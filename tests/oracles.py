"""Independent reference implementations used only by the tests.

The feature oracle walks the pixels with plain Python loops and computes
the standard deviation in a second pass around the mean, deliberately
sharing no code with the package's route through category-by-row and
category-by-column histograms. The convolution oracle loops over output
positions and kernel taps, sharing no code with the package's im2col GEMMs.
The gradient helpers measure central finite differences of a scalar
objective.
"""
from __future__ import annotations

import math

import numpy as np


def naive_ssf(grid: np.ndarray, num_categories: int, void_value: int | None = 0) -> np.ndarray:
    """Double-loop feature extraction; returns an (L, 5) array."""
    h, w = grid.shape
    L = num_categories
    counts = [0] * (L + 1)
    sum_x = [0.0] * (L + 1)
    sum_y = [0.0] * (L + 1)
    for i in range(h):          # i, j are 1-based positions
        row = grid[i]
        for j in range(w):
            v = int(row[j])
            if void_value is not None and v == void_value:
                continue
            counts[v] += 1
            sum_x[v] += j + 1
            sum_y[v] += i + 1

    mean_x = [0.0] * (L + 1)
    mean_y = [0.0] * (L + 1)
    for n in range(1, L + 1):
        if counts[n]:
            mean_x[n] = sum_x[n] / counts[n]
            mean_y[n] = sum_y[n] / counts[n]

    dev_x = [0.0] * (L + 1)
    dev_y = [0.0] * (L + 1)
    for i in range(h):
        row = grid[i]
        for j in range(w):
            v = int(row[j])
            if void_value is not None and v == void_value:
                continue
            dev_x[v] += (j + 1 - mean_x[v]) ** 2
            dev_y[v] += (i + 1 - mean_y[v]) ** 2

    out = np.zeros((L, 5))
    total = h * w
    for n in range(1, L + 1):
        if not counts[n]:
            continue
        sx = math.sqrt(dev_x[n] / counts[n])
        sy = math.sqrt(dev_y[n] / counts[n])
        out[n - 1] = (counts[n] / total, mean_x[n] / w, mean_y[n] / h, sx / w, sy / h)
    return out


def numeric_grad(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f with respect to array x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat_x = x.ravel()
    flat_g = g.ravel()
    for idx in range(flat_x.size):
        saved = flat_x[idx]
        flat_x[idx] = saved + step
        up = f()
        flat_x[idx] = saved - step
        down = f()
        flat_x[idx] = saved
        flat_g[idx] = (up - down) / (2.0 * step)
    return g


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(1e-8, np.abs(a) + np.abs(n))
    return float(np.max(np.abs(a - n) / denom))


def random_mask_grid(rng: np.random.Generator, num_categories: int,
                     height: int, width: int, void_fraction: float = 0.0) -> np.ndarray:
    """A random grid where every category value is valid; void is value 0."""
    grid = rng.integers(1, num_categories + 1, size=(height, width))
    if void_fraction > 0:
        grid[rng.random((height, width)) < void_fraction] = 0
    return grid.astype(np.uint16)


def naive_conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, pad_h: int, pad_w: int,
               grad_out: np.ndarray | None = None):
    """Loop stride-1 cross-correlation of (B, C, H, W) input with an (O, C, kh, kw) kernel.

    Returns the output, or with ``grad_out`` the gradients of
    ``sum(output * grad_out)`` with respect to the input, kernel and bias.
    """
    bsz, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = np.zeros((bsz, c, h + 2 * pad_h, wd + 2 * pad_w))
    xp[:, :, pad_h : pad_h + h, pad_w : pad_w + wd] = x
    ho = h + 2 * pad_h - kh + 1
    wo = wd + 2 * pad_w - kw + 1
    out = np.zeros((bsz, o, ho, wo))
    grad_xp, grad_w = np.zeros_like(xp), np.zeros_like(w)
    for n in range(bsz):
        for y in range(ho):
            for z in range(wo):
                window = xp[n, :, y : y + kh, z : z + kw]
                for k in range(o):
                    if grad_out is None:
                        out[n, k, y, z] = float((window * w[k]).sum()) + b[k]
                    else:
                        grad_w[k] += grad_out[n, k, y, z] * window
                        grad_xp[n, :, y : y + kh, z : z + kw] += grad_out[n, k, y, z] * w[k]
    if grad_out is None:
        return out
    grad_x = grad_xp[:, :, pad_h : pad_h + h, pad_w : pad_w + wd]
    return grad_x, grad_w, grad_out.sum(axis=(0, 2, 3))
