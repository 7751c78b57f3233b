import numpy as np
import pytest

import tvgsr
from tvgsr import ParameterError
from tvgsr.sampling import unsampled_nodes


class TestRandomEntryMask:
    def test_full_density(self):
        mask = tvgsr.random_entry_mask(4, 3, 1.0, 0)
        assert np.all(mask.mask == 1.0)

    def test_zero_density(self):
        mask = tvgsr.random_entry_mask(4, 3, 0.0, 0)
        assert np.all(mask.mask == 0.0)

    def test_exact_column_counts_and_determinism(self):
        a = tvgsr.random_entry_mask(10, 5, 0.5, 1234)
        b = tvgsr.random_entry_mask(10, 5, 0.5, 1234)
        assert np.all(a.mask.sum(axis=0) == 5)
        assert np.array_equal(a.mask, b.mask)
        c = tvgsr.random_entry_mask(10, 5, 0.5, 1235)
        assert not np.array_equal(a.mask, c.mask)

    def test_density_out_of_range(self):
        with pytest.raises(ParameterError):
            tvgsr.random_entry_mask(4, 3, 1.5, 0)

    def test_entries_binary(self):
        mask = tvgsr.random_entry_mask(7, 4, 0.31, 9)
        assert np.all((mask.mask == 0.0) | (mask.mask == 1.0))


class TestSnapshotMask:
    def test_full_density(self):
        assert np.all(tvgsr.snapshot_mask(3, 6, 1.0, 0).mask == 1.0)

    def test_exact_snapshot_count(self):
        mask = tvgsr.snapshot_mask(3, 10, 0.5, 77)
        sums = mask.mask.sum(axis=0)
        assert np.count_nonzero(sums == 3) == 5
        assert np.count_nonzero(sums == 0) == 5

    def test_column_sums_zero_or_full(self):
        mask = tvgsr.snapshot_mask(5, 9, 0.4, 3)
        assert set(mask.mask.sum(axis=0)) <= {0.0, 5.0}


@pytest.mark.parametrize("draw", [tvgsr.random_entry_mask, tvgsr.snapshot_mask])
def test_seed_is_a_non_negative_integer(draw):
    with pytest.raises(ParameterError, match="seed must be a non-negative integer, got -1"):
        draw(4, 6, 0.5, np.int64(-1))
    # numpy integers and mask_seed's 64-bit values still seed the generator
    assert np.array_equal(draw(4, 6, 0.5, np.uint64(2**64 - 1)).mask,
                          draw(4, 6, 0.5, 2**64 - 1).mask)


class TestForecastingMask:
    def test_last_column_hidden(self):
        mask = tvgsr.forecasting_mask(3, 5, 1)
        assert np.all(mask.mask[:, :4] == 1.0)
        assert np.all(mask.mask[:, 4] == 0.0)

    def test_only_first_column_observed(self):
        mask = tvgsr.forecasting_mask(3, 5, 4)
        assert np.all(mask.mask[:, 0] == 1.0)
        assert np.all(mask.mask[:, 1:] == 0.0)

    def test_column_sum_pattern(self):
        mask = tvgsr.forecasting_mask(4, 6, 2)
        assert np.array_equal(mask.mask.sum(axis=0), [4, 4, 4, 4, 0, 0])

    def test_horizon_out_of_range(self):
        with pytest.raises(ParameterError):
            tvgsr.forecasting_mask(3, 5, 0)
        with pytest.raises(ParameterError):
            tvgsr.forecasting_mask(3, 5, 5)


class TestCheckUniqueness:
    def test_all_ones(self):
        check = tvgsr.check_uniqueness(np.ones((3, 4)))
        assert check.condition1 and check.condition2

    def test_zero_row_fails_condition1(self):
        mask = np.ones((3, 4))
        mask[1] = 0.0
        check = tvgsr.check_uniqueness(mask)
        assert not check.condition1

    def test_hand_checked_fiducial(self):
        mask = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        check = tvgsr.check_uniqueness(mask)
        assert check.condition1
        assert check.condition2
        assert check.fiducial_column == 2

    def test_no_fiducial(self):
        # disjoint column supports: no snapshot shares a node with another
        mask = np.array([[1.0, 0.0], [0.0, 1.0]])
        check = tvgsr.check_uniqueness(mask)
        assert check.condition1
        assert not check.condition2

    def test_forecasting_always_fails_condition2(self):
        for horizon in (1, 2, 4):
            mask = tvgsr.forecasting_mask(5, 6, horizon)
            check = tvgsr.check_uniqueness(mask)
            assert not check.condition2


class TestUnsampledNodes:
    def test_rows_without_a_sample(self):
        mask = np.ones((6, 3))
        mask[[1, 4]] = 0.0
        mask[2, :2] = 0.0
        assert unsampled_nodes(mask).tolist() == [1, 4]
        assert unsampled_nodes(np.ones((6, 3))).size == 0


@pytest.mark.parametrize("n_nodes, n_snapshots", [(-3, 4), (3, -4), (0, 4), (3, 0)])
def test_every_mask_needs_a_node_and_a_snapshot(n_nodes, n_snapshots):
    for make in (lambda: tvgsr.random_entry_mask(n_nodes, n_snapshots, 0.5, 0),
                 lambda: tvgsr.snapshot_mask(n_nodes, n_snapshots, 0.5, 0),
                 lambda: tvgsr.forecasting_mask(n_nodes, n_snapshots, 1)):
        with pytest.raises(ParameterError, match="at least one node and one snapshot"):
            make()
