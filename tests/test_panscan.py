import json

import numpy as np
import pytest

from gemma_mini.errors import ShapeError
from gemma_mini.panscan import (
    CropPlan,
    bilinear_resize,
    extract_and_resize,
    plan_crops,
    pool_embeddings,
)


def check_plan_invariants(plan, max_crops):
    # exact cover: areas add up and no two rectangles intersect
    area = sum(w * h for _, _, w, h in plan.crops)
    assert area == plan.image_w * plan.image_h
    for i, (x1, y1, w1, h1) in enumerate(plan.crops):
        assert 0 <= x1 and 0 <= y1
        assert x1 + w1 <= plan.image_w and y1 + h1 <= plan.image_h
        for x2, y2, w2, h2 in plan.crops[i + 1 :]:
            overlap_x = max(0, min(x1 + w1, x2 + w2) - max(x1, x2))
            overlap_y = max(0, min(y1 + h1, y2 + h2) - max(y1, y2))
            assert overlap_x * overlap_y == 0
    if plan.applied:
        assert len(plan.crops) <= max_crops
    else:
        assert len(plan.crops) == 1
    widths = {w for _, _, w, _ in plan.crops}
    heights = {h for _, _, _, h in plan.crops}
    assert max(widths) - min(widths) <= 1
    assert max(heights) - min(heights) <= 1


class TestPlanCrops:
    def test_square_target_image_skips_windowing(self):
        plan = plan_crops(896, 896, max_crops=16)
        assert not plan.applied
        assert plan.crops == [(0, 0, 896, 896)]

    def test_two_wide(self):
        plan = plan_crops(1792, 896, max_crops=4)
        assert plan.applied
        assert plan.grid == (2, 1)
        assert plan.crops == [(0, 0, 896, 896), (896, 0, 896, 896)]

    def test_wide_strip_shrunk_by_max_crops(self):
        # ceil(4000/896)=5 columns, cut down to a 4x1 grid of 1000x1000
        plan = plan_crops(4000, 1000, max_crops=4)
        assert plan.grid == (4, 1)
        assert all((w, h) == (1000, 1000) for _, _, w, h in plan.crops)

    def test_tall_strip_mirrors_wide(self):
        plan = plan_crops(1000, 4000, max_crops=4)
        assert plan.grid == (1, 4)

    def test_oversize_square_triggers(self):
        plan = plan_crops(1000, 950, max_crops=9)
        assert plan.applied  # aspect fine but the long side exceeds target

    def test_skinny_image_triggers_on_aspect(self):
        plan = plan_crops(800, 300, max_crops=4)
        assert plan.applied

    def test_random_triples_keep_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            w = int(rng.integers(1, 6000))
            h = int(rng.integers(1, 6000))
            max_crops = int(rng.integers(1, 17))
            plan = plan_crops(w, h, max_crops=max_crops)
            check_plan_invariants(plan, max_crops)

    def test_disabled_path_is_single_crop(self):
        for w, h in [(10, 10), (896, 800), (640, 600)]:
            plan = plan_crops(w, h, max_crops=4)
            assert not plan.applied
            assert plan.crops == [(0, 0, w, h)]

    def test_json_round_trip(self):
        plan = plan_crops(4000, 1000, max_crops=4)
        parsed = CropPlan.from_dict(json.loads(plan.to_json()))
        assert parsed == plan

    def test_every_plan_round_trips(self):
        # applied or not, one crop or a full grid; (100, 300) is applied with one crop
        for w, h in [(10, 10), (100, 300), (897, 5), (1792, 1792), (4000, 1000), (3, 9000)]:
            for max_crops in (1, 2, 4, 9):
                plan = plan_crops(w, h, max_crops=max_crops)
                parsed = CropPlan.from_dict(json.loads(plan.to_json()))
                assert parsed == plan and parsed.to_json() == plan.to_json()

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(image_w=-3, image_h="x", grid=[9, 9], crops=[[0, 0, 1, 1]],
                           applied="yes"),
        lambda d: d.update(image_w=-3),
        lambda d: d.update(image_h="x"),
        lambda d: d.update(image_w=1792.0),
        lambda d: d.update(applied="yes"),
        lambda d: d.update(applied=1),
        lambda d: d["crops"][0].__setitem__(2, 896.0),
        lambda d: d["crops"][0].pop(),
        lambda d: d.update(grid=[2, 2, 1]),
        lambda d: d.update(grid=[0, 0], crops=[]),
        lambda d: d.update(extra=1),
        lambda d: d.pop("applied"),
        lambda d: d.update(crops=None),
        lambda d: d["crops"].pop(),  # 3 crops on a 2x2 grid
        lambda d: d.update(grid=[4, 1]),  # 4 crops, but a 2x2 grid's
        lambda d: d["crops"].insert(1, d["crops"].pop(2)),  # column-major
        lambda d: d["crops"][1].__setitem__(0, 895),  # overlapping columns
        lambda d: d.update(image_w=1793),  # a column left uncovered
        # a tiling, but not of near-equal cells as plan_crops cuts them
        lambda d: d.update(crops=[[0, 0, 800, 896], [800, 0, 992, 896],
                                  [0, 896, 800, 896], [800, 896, 992, 896]]),
        lambda d: d.update(applied=False),  # an unapplied plan is one full-image crop
    ])
    def test_from_dict_refuses_a_plan_plan_crops_does_not_make(self, edit):
        d = json.loads(plan_crops(1792, 1792, max_crops=4).to_json())
        assert d["grid"] == [2, 2]
        edit(d)
        with pytest.raises(ValueError, match="^not a crop plan: "):
            CropPlan.from_dict(d)

    def test_from_dict_refuses_a_non_dict(self):
        for d in (None, [], "plan"):
            with pytest.raises(ValueError, match="^not a crop plan: "):
                CropPlan.from_dict(d)

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            plan_crops(0, 5)
        with pytest.raises(ValueError):
            plan_crops(5, 5, max_crops=0)
        with pytest.raises(ValueError):
            plan_crops(5000, 5, target=0)


def bilinear_oracle(img, out_h, out_w):
    """Per-pixel half-pixel-center bilinear lookup, written independently."""
    in_h, in_w = img.shape[:2]
    out = np.zeros((out_h, out_w) + img.shape[2:])
    for oy in range(out_h):
        sy = min(max((oy + 0.5) * in_h / out_h - 0.5, 0.0), in_h - 1.0)
        y0 = int(np.floor(sy))
        y1 = min(y0 + 1, in_h - 1)
        fy = sy - y0
        for ox in range(out_w):
            sx = min(max((ox + 0.5) * in_w / out_w - 0.5, 0.0), in_w - 1.0)
            x0 = int(np.floor(sx))
            x1 = min(x0 + 1, in_w - 1)
            fx = sx - x0
            out[oy, ox] = (
                img[y0, x0] * (1 - fy) * (1 - fx)
                + img[y0, x1] * (1 - fy) * fx
                + img[y1, x0] * fy * (1 - fx)
                + img[y1, x1] * fy * fx
            )
    return out


class TestExtractAndResize:
    def test_constant_image_stays_constant(self):
        img = np.full((1000, 1800, 3), 7.0)
        plan = plan_crops(1800, 1000, max_crops=4)
        for crop in extract_and_resize(img, plan, target=64):
            np.testing.assert_array_equal(crop, np.full((64, 64, 3), 7.0))

    def test_target_sized_crop_passes_through(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 255, size=(896, 1792, 3))
        plan = plan_crops(1792, 896, max_crops=4)
        crops = extract_and_resize(img, plan)
        np.testing.assert_array_equal(crops[0], img[:, :896])
        np.testing.assert_array_equal(crops[1], img[:, 896:])

    def test_downscale_matches_bilinear_oracle(self):
        # checkerboard, halved along both axes
        ys, xs = np.indices((16, 16))
        board = ((ys + xs) % 2).astype(float)
        got = bilinear_resize(board, 8, 8)
        want = bilinear_oracle(board, 8, 8)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_color_resize_matches_oracle(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(size=(11, 7, 3))
        np.testing.assert_allclose(
            bilinear_resize(img, 5, 9), bilinear_oracle(img, 5, 9), atol=1e-12
        )

    def test_dimension_mismatch(self):
        plan = plan_crops(100, 100, max_crops=4)
        with pytest.raises(ShapeError):
            extract_and_resize(np.zeros((50, 50)), plan)


class TestPoolEmbeddings:
    def test_constant_grid(self):
        grid = np.full((32, 32, 5), 3.25)
        out = pool_embeddings(grid)
        assert out.shape == (16, 16, 5)
        np.testing.assert_array_equal(out, np.full((16, 16, 5), 3.25))

    def test_identity_when_grid_is_16(self):
        rng = np.random.default_rng(3)
        grid = rng.normal(size=(16, 16, 4))
        np.testing.assert_array_equal(pool_embeddings(grid), grid)

    def test_matches_blockwise_mean_oracle(self):
        rng = np.random.default_rng(4)
        grid = rng.normal(size=(64, 64, 3))
        got = pool_embeddings(grid)
        want = np.zeros((16, 16, 3))
        for i in range(16):
            for j in range(16):
                block = grid[4 * i : 4 * i + 4, 4 * j : 4 * j + 4]
                want[i, j] = block.mean(axis=(0, 1))
        np.testing.assert_array_equal(got, want)

    @staticmethod
    def _block_loop(grid, out):
        """The double loop pool_embeddings ran before: one block mean per cell."""
        b = grid.shape[0] // out
        pooled = np.empty((out, out, grid.shape[2]))
        for i in range(out):
            for j in range(out):
                pooled[i, j] = grid[i * b : (i + 1) * b, j * b : (j + 1) * b].mean(axis=(0, 1))
        return pooled

    @pytest.mark.parametrize("side", [32, 64, 96])
    def test_bit_equal_to_the_block_loop(self, side):
        grid = np.random.default_rng(side).normal(size=(side, side, 40)) * 10
        np.testing.assert_array_equal(pool_embeddings(grid), self._block_loop(grid, 16))

    @pytest.mark.parametrize("side", [32, 64, 96])
    def test_one_channel_within_1e_14_of_the_block_loop(self, side):
        # with a single channel numpy sums a block's cells in another order, so the
        # means may differ in their last bits: within 1e-14 for cells of scale 10
        grid = np.random.default_rng(side).normal(size=(side, side, 1)) * 10
        np.testing.assert_allclose(
            pool_embeddings(grid), self._block_loop(grid, 16), rtol=0, atol=1e-14)

    def test_preserves_global_mean(self):
        rng = np.random.default_rng(5)
        grid = rng.normal(size=(48, 48, 2))
        np.testing.assert_allclose(
            pool_embeddings(grid).mean(axis=(0, 1)), grid.mean(axis=(0, 1)), atol=1e-12
        )

    def test_indivisible_grid_rejected(self):
        with pytest.raises(ShapeError):
            pool_embeddings(np.zeros((17, 17, 2)))

    @pytest.mark.parametrize("out", [0, -1])
    def test_no_output_cells_rejected(self, out):
        with pytest.raises(ShapeError, match=f"out must be >= 1, got {out}"):
            pool_embeddings(np.zeros((16, 16, 2)), out=out)
