"""Tests for :func:`repro.utils.sampling.fresh_cells`, the batched dedup kernel.

The kernel replaces ``u = np.unique(cells); u[~held[u]]`` in the batched
engines; the engines' seeded outputs stay identical only if it matches that
reference exactly — values, ascending order, and dtype.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.sampling import fresh_cells


def reference(cells: np.ndarray, held: np.ndarray) -> np.ndarray:
    unique = np.unique(cells)
    return unique[~held[unique]]


def assert_matches_reference(cells: np.ndarray, held: np.ndarray) -> None:
    got = fresh_cells(cells, held)
    want = reference(cells, held)
    assert got.dtype == np.int64
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@st.composite
def masks_and_cells(draw: st.DrawFn) -> tuple[np.ndarray, np.ndarray]:
    size = draw(st.integers(min_value=1, max_value=300))
    held = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool)
    cells = draw(st.lists(st.integers(min_value=0, max_value=size - 1), max_size=3 * size))
    # Bias towards the boundary cells, where off-by-one scatters would show.
    cells += draw(st.lists(st.sampled_from([0, size - 1]), max_size=4))
    return np.array(cells, dtype=np.int64), held


class TestFreshCells:
    @given(case=masks_and_cells())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_unique_reference(self, case: tuple[np.ndarray, np.ndarray]) -> None:
        cells, held = case
        assert_matches_reference(cells, held)

    @given(case=masks_and_cells())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_never_mutates_arguments(self, case: tuple[np.ndarray, np.ndarray]) -> None:
        cells, held = case
        cells_before, held_before = cells.copy(), held.copy()
        fresh_cells(cells, held)
        np.testing.assert_array_equal(cells, cells_before)
        np.testing.assert_array_equal(held, held_before)

    def test_empty_cells(self) -> None:
        held = np.zeros(10, dtype=bool)
        cells = np.empty(0, dtype=np.int64)
        assert_matches_reference(cells, held)
        assert fresh_cells(cells, held).size == 0

    def test_all_held(self) -> None:
        held = np.ones(10, dtype=bool)
        cells = np.array([9, 0, 3, 3, 7], dtype=np.int64)
        assert_matches_reference(cells, held)
        assert fresh_cells(cells, held).size == 0

    def test_first_and_last_cells(self) -> None:
        held = np.zeros(8, dtype=bool)
        held[4] = True
        cells = np.array([7, 0, 7, 4, 0], dtype=np.int64)
        np.testing.assert_array_equal(fresh_cells(cells, held), [0, 7])

    def test_duplicates_and_order(self) -> None:
        held = np.array([True, False, False, True, False, False])
        cells = np.array([5, 2, 5, 1, 3, 2, 0, 4], dtype=np.int64)
        np.testing.assert_array_equal(fresh_cells(cells, held), [1, 2, 4, 5])

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_result_is_int64_for_any_index_dtype(self, dtype: type) -> None:
        held = np.zeros(6, dtype=bool)
        cells = np.array([3, 1, 3], dtype=dtype)
        got = fresh_cells(cells, held)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, [1, 3])
