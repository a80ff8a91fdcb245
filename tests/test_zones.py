import math

import numpy as np
import pytest

from sgfsim.model import db_to_linear
from sgfsim.zones import ZoneLabel, classify_grid, classify_rate_pair, grid_runs, region_corners

NOMA_LABELS = (ZoneLabel.NOMA_GBU_FIRST, ZoneLabel.NOMA_GFU_FIRST, ZoneLabel.NOMA_EITHER)


class TestRegionCorners:
    def test_absent_gbu_degenerates(self):
        c = region_corners(0.0, 9.0)
        assert c.gbu_alone == 0.0
        assert c.gbu_decoded_first == 0.0
        assert c.gfu_alone == c.gfu_decoded_first == c.sum_rate == pytest.approx(math.log2(10.0))

    def test_reference_powers(self):
        c = region_corners(db_to_linear(8.0), db_to_linear(15.0))
        assert c.sum_rate == pytest.approx(5.28290, abs=1e-4)
        assert c.gbu_alone == pytest.approx(2.86979, abs=1e-4)
        assert c.gfu_alone == pytest.approx(5.02781, abs=1e-4)

    def test_sum_rate_identity(self):
        rng = np.random.default_rng(51)
        for _ in range(10_000):
            p_gbu = float(rng.uniform(0.0, 1000.0))
            p_gfu = float(rng.uniform(0.0, 1000.0))
            c = region_corners(p_gbu, p_gfu)
            assert c.gbu_decoded_first + c.gfu_alone == pytest.approx(c.sum_rate, rel=1e-12)
            assert c.gbu_alone + c.gfu_decoded_first == pytest.approx(c.sum_rate, rel=1e-12)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            region_corners(-1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_power(self, bad):
        with pytest.raises(ValueError, match="finite"):
            region_corners(bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            region_corners(1.0, bad)
        with pytest.raises(ValueError, match="finite"):
            classify_grid(1.0, bad, 4)

    def test_rejects_overflowing_sum_rate(self):
        # each power is finite, but 1 + p_gbu + p_gfu is not
        message = r"received powers 1\.5e\+308, 1\.5e\+308 give sum rate inf"
        with pytest.raises(ValueError, match=message):
            region_corners(1.5e308, 1.5e308)
        with pytest.raises(ValueError, match=message):
            classify_rate_pair(1.5e308, 1.5e308, 1.0, 1.0)
        with pytest.raises(ValueError, match=message):
            grid_runs(1.5e308, 1.5e308, 2)

    def test_largest_finite_sum_is_accepted(self):
        c = region_corners(1.5e308, 1.5e307)
        assert c.sum_rate == pytest.approx(math.log2(1.65e308))


class TestClassifyRatePair:
    def setup_method(self):
        self.p_gbu = db_to_linear(8.0)
        self.p_gfu = db_to_linear(15.0)
        self.corners = region_corners(self.p_gbu, self.p_gfu)

    def classify(self, t_gbu, t_gfu):
        return classify_rate_pair(self.p_gbu, self.p_gfu, t_gbu, t_gfu)

    def test_corner_point_is_inclusive(self):
        c = self.corners
        label = self.classify(c.gbu_decoded_first, c.gfu_alone)
        assert label in (ZoneLabel.NOMA_GBU_FIRST, ZoneLabel.NOMA_EITHER)

    def test_sum_face_midpoint_needs_rate_splitting(self):
        # nudged just inside the face so rounding cannot push the sum over
        c = self.corners
        t_gbu = (c.gbu_alone + c.gbu_decoded_first) / 2.0
        t_gfu = c.sum_rate - t_gbu - 1e-9
        assert t_gfu <= c.gfu_alone
        assert self.classify(t_gbu, t_gfu) is ZoneLabel.RSMA_ONLY

    def test_exceeding_single_user_capacity_is_outage(self):
        c = self.corners
        assert self.classify(c.gbu_alone + 0.01, 0.1) is ZoneLabel.OUTAGE

    def test_small_pair_supports_either_order(self):
        assert self.classify(0.05, 0.05) is ZoneLabel.NOMA_EITHER

    def test_targets_must_be_positive(self):
        with pytest.raises(ValueError):
            self.classify(0.0, 1.0)

    @pytest.mark.parametrize("targets", [(math.nan, 1.0), (1.0, math.nan)])
    def test_nan_target_rejected(self, targets):
        # a NaN target once classified as OUTAGE
        with pytest.raises(ValueError):
            classify_rate_pair(1.0, 1.0, *targets)

    def test_rsma_only_triangle_nonempty_for_positive_powers(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            p_gbu = float(rng.uniform(0.05, 300.0))
            p_gfu = float(rng.uniform(0.05, 300.0))
            c = region_corners(p_gbu, p_gfu)
            t_gbu = (c.gbu_alone + c.gbu_decoded_first) / 2.0
            t_gfu = c.sum_rate - t_gbu - 1e-9
            assert classify_rate_pair(p_gbu, p_gfu, t_gbu, t_gfu) is ZoneLabel.RSMA_ONLY

    def test_monotone_in_targets(self):
        rng = np.random.default_rng(53)
        for _ in range(2000):
            t_gbu = float(rng.uniform(0.01, 7.0))
            t_gfu = float(rng.uniform(0.01, 7.0))
            label = self.classify(t_gbu, t_gfu)
            if label is ZoneLabel.OUTAGE:
                assert self.classify(t_gbu + 0.5, t_gfu) is ZoneLabel.OUTAGE
                assert self.classify(t_gbu, t_gfu + 0.5) is ZoneLabel.OUTAGE


class TestClassifyGrid:
    def test_grid_shape_and_containment(self):
        p_gbu, p_gfu = 3.7, 42.0
        corners = region_corners(p_gbu, p_gfu)
        cells = classify_grid(p_gbu, p_gfu, 50)
        assert len(cells) == 2500
        for t_gbu, t_gfu, label in cells:
            if label in NOMA_LABELS:
                assert t_gbu <= corners.gbu_alone
                assert t_gfu <= corners.gfu_alone
                assert t_gbu + t_gfu <= corners.sum_rate + 1e-12

    def test_all_labels_present_at_reference_powers(self):
        cells = classify_grid(db_to_linear(8.0), db_to_linear(15.0), 60)
        labels = {label for _, _, label in cells}
        assert labels == set(ZoneLabel)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            classify_grid(1.0, 1.0, 0)


def pairwise_grid(p_gbu, p_gfu, grid_n):
    """The grid classified pair by pair, each pair through ``classify_rate_pair``."""
    if grid_n < 1:
        raise ValueError(f"grid_n must be >= 1, got {grid_n}")
    step = region_corners(p_gbu, p_gfu).sum_rate / grid_n
    points = [step * (i + 1) for i in range(grid_n)]
    return [(a, b, classify_rate_pair(p_gbu, p_gfu, a, b)) for a in points for b in points]


GRID_SIZES = (1, 2, 3, 7, 200, 333)


class TestGridMatchesPairwise:
    def test_seeded_draws(self):
        rng = np.random.default_rng(54)
        on_corner = on_sum_face = 0
        sizes = set()
        for draw in range(300):
            p_gbu, p_gfu = (db_to_linear(float(v)) for v in rng.uniform(-20.0, 50.0, 2))
            if draw % 10 == 0:
                # one user silent: its corners coincide with the sum rate, which the
                # last grid point can hit exactly
                p_gbu, p_gfu = (0.0, p_gfu) if draw % 20 else (p_gbu, 0.0)
            # the pairwise reference costs ~3 us a cell: few draws get a large grid
            grid_n = int(rng.choice(GRID_SIZES, p=[0.245] * 4 + [0.01] * 2))
            sizes.add(grid_n)
            cells = classify_grid(p_gbu, p_gfu, grid_n)
            assert cells == pairwise_grid(p_gbu, p_gfu, grid_n)
            c = region_corners(p_gbu, p_gfu)
            corners = {c.gbu_alone, c.gfu_alone, c.gbu_decoded_first, c.gfu_decoded_first}
            on_corner += sum(t_gfu in corners for _, t_gfu, _ in cells[:grid_n])
            on_sum_face += sum(a + b == c.sum_rate for a, b, _ in cells)
        # every size and the inclusive edges were exercised
        assert sizes == set(GRID_SIZES)
        assert on_corner > 0
        assert on_sum_face > 0

    @pytest.mark.parametrize(
        "p_gbu, p_gfu, grid_n",
        [
            (1.0, 1.0, 0),
            (1.0, 1.0, -3),
            (math.nan, 1.0, 4),
            (1.0, math.inf, 4),
            (-1.0, 1.0, 4),
            (0.0, 0.0, 5),
            (1e-40, 1e-40, 3),
        ],
        ids=["zero-grid", "negative-grid", "nan-power", "inf-power", "negative-power",
             "silent", "sum-rate-rounds-to-zero"],
    )
    def test_raises_where_pairwise_raised(self, p_gbu, p_gfu, grid_n):
        with pytest.raises(ValueError):
            pairwise_grid(p_gbu, p_gfu, grid_n)
        with pytest.raises(ValueError):
            classify_grid(p_gbu, p_gfu, grid_n)

    def test_zero_sum_rate_names_the_powers(self):
        with pytest.raises(ValueError, match=r"received powers 1e-40, 1e-40 give sum rate 0\.0"):
            classify_grid(1e-40, 1e-40, 3)


def expand_runs(points, runs):
    return [(t_gbu, t_gfu, label) for t_gbu, start, end, label in runs for t_gfu in points[start:end]]


PRESET_POWERS = (db_to_linear(8.0), db_to_linear(15.0))
POWER_PAIRS = (PRESET_POWERS, (3.7, 42.0), (0.0, 9.0), (9.0, 0.0), (1e4, 0.1))


class TestGridRuns:
    @pytest.mark.parametrize(
        "p_gbu, p_gfu, grid_n",
        [(*pair, n) for pair in POWER_PAIRS for n in (1, 2, 3, 7)] + [(*PRESET_POWERS, 200)],
    )
    def test_runs_tile_each_row_and_match_pairwise(self, p_gbu, p_gfu, grid_n):
        points, runs = grid_runs(p_gbu, p_gfu, grid_n)
        assert len(points) == grid_n
        rows = {}
        for t_gbu, start, end, _ in runs:
            rows.setdefault(t_gbu, []).append((start, end))
        # rows in ascending order, every grid point a row
        assert list(rows) == points == sorted(set(points))
        for spans in rows.values():
            assert spans[0][0] == 0
            assert spans[-1][1] == grid_n
            assert all(prev[1] == nxt[0] for prev, nxt in zip(spans, spans[1:]))
            assert all(start < end for start, end in spans)
            assert len(spans) <= 4
        assert expand_runs(points, runs) == pairwise_grid(p_gbu, p_gfu, grid_n)
        assert expand_runs(points, runs) == classify_grid(p_gbu, p_gfu, grid_n)
