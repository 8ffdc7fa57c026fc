"""Tests for the Hilbert curve index the shard map partitions along."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.pmr.locational import hilbert_index


class TestHilbertIndex:
    def test_order1_values(self):
        # The order-1 curve visits (0,0), (0,1), (1,1), (1,0).
        assert hilbert_index(1, 0, 0) == 0
        assert hilbert_index(1, 0, 1) == 1
        assert hilbert_index(1, 1, 1) == 2
        assert hilbert_index(1, 1, 0) == 3

    def test_bijection_small_orders(self):
        for order in (1, 2, 3, 4):
            n = 1 << order
            seen = {hilbert_index(order, x, y) for x in range(n) for y in range(n)}
            assert seen == set(range(n * n))

    def test_curve_is_continuous(self):
        """Consecutive indices map to 4-adjacent cells (the defining
        property Morton lacks)."""
        order = 4
        n = 1 << order
        by_index = {}
        for x in range(n):
            for y in range(n):
                by_index[hilbert_index(order, x, y)] = (x, y)
        for i in range(n * n - 1):
            (x1, y1), (x2, y2) = by_index[i], by_index[i + 1]
            assert abs(x1 - x2) + abs(y1 - y2) == 1, (i, by_index[i], by_index[i + 1])

    @given(st.integers(1, 8), st.integers(0, 255), st.integers(0, 255))
    def test_index_in_range(self, order, x, y):
        n = 1 << order
        idx = hilbert_index(order, x % n, y % n)
        assert 0 <= idx < n * n
