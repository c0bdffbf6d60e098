"""Adaptive image windowing: plan non-overlapping near-equal crops covering
an image, resize each to the encoder's square input, and average-pool patch
embedding grids down to a fixed 256 vectors.

Planning is geometry only (no pixel data needed); everything here is pure
and crops can be processed in parallel.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

TARGET_SIZE = 896
MAX_CROPS_DEFAULT = 4
# Windowing triggers only when the image strays from the encoder's square
# input: aspect ratio beyond this, or longest side beyond target.
ASPECT_THRESHOLD = 1.2
POOLED_GRID = 16  # pooled output is POOLED_GRID^2 = 256 vectors


@dataclass(frozen=True)
class CropPlan:
    image_w: int
    image_h: int
    grid: tuple  # (nx, ny)
    crops: list  # [(x, y, w, h), ...] row-major
    applied: bool  # False means windowing was skipped: one full-image crop

    def to_dict(self) -> dict:
        return {
            "image_w": self.image_w,
            "image_h": self.image_h,
            "grid": list(self.grid),
            "crops": [list(c) for c in self.crops],
            "applied": self.applied,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "CropPlan":
        """The plan of a to_dict. A missing, unknown or mistyped entry, crops
        other than the grid's cells as plan_crops cuts them, or an unapplied
        plan of more than one crop, is one ValueError."""
        try:
            if set(d) != {"image_w", "image_h", "grid", "crops", "applied"}:
                raise ValueError(f"keys {sorted(d)} are not a plan's")
            plan = cls(d["image_w"], d["image_h"], tuple(d["grid"]),
                       [tuple(c) for c in d["crops"]], d["applied"])
            (w, h), (nx, ny) = (plan.image_w, plan.image_h), plan.grid
            ints = (w, h, nx, ny, *(v for crop in plan.crops for v in crop))
            if type(plan.applied) is not bool or any(type(v) is not int for v in ints):
                raise ValueError("an entry has the wrong type")
            if not (1 <= nx <= w and 1 <= ny <= h and len(plan.crops) == nx * ny
                    and plan.crops == _cells(w, h, nx, ny)):
                raise ValueError(f"crops are not a {nx}x{ny} grid's near-equal cells of a "
                                 f"{w}x{h} image, row-major")
            if not plan.applied and plan.grid != (1, 1):
                raise ValueError("an unapplied plan is one full-image crop")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"not a crop plan: {exc}") from None
        return plan


def _partition(length: int, parts: int) -> list[tuple[int, int]]:
    """(offset, size) pieces covering [0, length); sizes differ by <= 1."""
    bounds = [(i * length) // parts for i in range(parts + 1)]
    return [(bounds[i], bounds[i + 1] - bounds[i]) for i in range(parts)]


def _cells(w: int, h: int, nx: int, ny: int) -> list[tuple[int, int, int, int]]:
    """The (x, y, w, h) crops of an nx x ny grid over a w x h image, row-major."""
    return [(x, y, cw, ch) for (y, ch) in _partition(h, ny) for (x, cw) in _partition(w, nx)]


def plan_crops(
    w: int,
    h: int,
    target: int = TARGET_SIZE,
    max_crops: int = MAX_CROPS_DEFAULT,
) -> CropPlan:
    """Plan a grid of equal crops (within 1 px, integer partitioning).

    Grid starts at ceil(side / target) per axis, then axes are decremented
    alternately, beginning with the axis holding more crops, until the count
    fits max_crops.
    """
    if w < 1 or h < 1 or max_crops < 1 or target < 1:
        raise ValueError(f"bad geometry: {w}x{h}, max_crops={max_crops}, target={target}")
    long_side, short_side = max(w, h), min(w, h)
    if long_side / short_side <= ASPECT_THRESHOLD and long_side <= target:
        return CropPlan(w, h, (1, 1), [(0, 0, w, h)], applied=False)

    nx = -(-w // target)
    ny = -(-h // target)
    shrink_x = nx > ny or (nx == ny and w >= h)
    while nx * ny > max_crops:
        if shrink_x:
            if nx > 1:
                nx -= 1
            shrink_x = ny <= 1
        else:
            if ny > 1:
                ny -= 1
            shrink_x = nx > 1
    return CropPlan(w, h, (nx, ny), _cells(w, h, nx, ny), applied=True)


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear sampling with half-pixel centers; identity when sizes match."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim not in (2, 3):
        raise ShapeError(f"image must be HxW or HxWxC, got shape {image.shape}")
    in_h, in_w = image.shape[:2]
    ys = np.clip((np.arange(out_h) + 0.5) * in_h / out_h - 0.5, 0.0, in_h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * in_w / out_w - 0.5, 0.0, in_w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    if image.ndim == 3:
        wy = wy[..., None]
        wx = wx[..., None]
    top = image[np.ix_(y0, x0)] * (1 - wx) + image[np.ix_(y0, x1)] * wx
    bot = image[np.ix_(y1, x0)] * (1 - wx) + image[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bot * wy


def extract_and_resize(
    image: np.ndarray, plan: CropPlan, target: int = TARGET_SIZE
) -> list[np.ndarray]:
    """Cut each planned crop out of (H, W[, C]) pixels and resize to target^2."""
    image = np.asarray(image, dtype=np.float64)
    if image.shape[0] != plan.image_h or image.shape[1] != plan.image_w:
        raise ShapeError(
            f"image is {image.shape[1]}x{image.shape[0]}, "
            f"plan wants {plan.image_w}x{plan.image_h}"
        )
    out = []
    for x, y, cw, ch in plan.crops:
        crop = image[y : y + ch, x : x + cw]
        if (ch, cw) == (target, target):
            out.append(crop.copy())
        else:
            out.append(bilinear_resize(crop, target, target))
    return out


def pool_embeddings(grid: np.ndarray, out: int = POOLED_GRID) -> np.ndarray:
    """Blockwise mean over a (g, g, d) grid down to (out, out, d).

    g must be divisible by out; the global mean is preserved because every
    block averages the same number of cells.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 3 or grid.shape[0] != grid.shape[1]:
        raise ShapeError(f"expected a square (g, g, d) grid, got {grid.shape}")
    if out < 1:
        raise ShapeError(f"out must be >= 1, got {out}")
    g = grid.shape[0]
    if g % out != 0:
        raise ShapeError(f"grid side {g} is not divisible by {out}")
    b = g // out
    return grid.reshape(out, b, out, b, grid.shape[2]).mean(axis=(1, 3))
