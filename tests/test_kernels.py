import math

import numpy as np
import pytest

from opertail import kernels


@pytest.fixture(scope="module")
def sample():
    rng = np.random.default_rng(0)
    return rng.pareto(1.0, size=(5000, 3)) + 1.0


def row_in_region(row, w, kind):
    """Brute-force membership test for one sample row."""
    if kind == "box":
        return all(xj <= wj for xj, wj in zip(row, w))
    if kind == "upper_orthant":
        return all(xj > wj for xj, wj in zip(row, w))
    if kind == "lower_union":
        return any(xj < wj for xj, wj in zip(row, w))
    assert kind == "box_complement"
    return any(xj > wj for xj, wj in zip(row, w))


class TestCountInRegion:
    @pytest.mark.parametrize("kind", ["box", "upper_orthant", "lower_union",
                                      "box_complement"])
    def test_matches_bruteforce_loop(self, sample, kind):
        w = [2.0, 3.0, 1.5]
        expected = sum(row_in_region(row, w, kind) for row in sample.tolist())
        assert kernels.count_in_region(sample, np.array(w), kind) == expected

    def test_partition_identity(self, sample):
        # box and box-complement counts partition the sample
        w = np.array([2.0, 2.0, 2.0])
        n_box = kernels.count_in_region(sample, w, "box")
        n_comp = kernels.count_in_region(sample, w, "box_complement")
        assert n_box + n_comp == len(sample)

    def test_handpicked_counts(self):
        x = np.array([[0.5, 0.5], [1.5, 0.5], [1.5, 1.5], [2.5, 2.5]])
        w = np.array([1.0, 1.0])
        assert kernels.count_in_region(x, w, "box") == 1
        assert kernels.count_in_region(x, w, "upper_orthant") == 2
        assert kernels.count_in_region(x, w, "lower_union") == 2
        assert kernels.count_in_region(x, w, "box_complement") == 3

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            kernels.count_in_region(np.ones((3, 2)), np.ones(3), "box")
        with pytest.raises(ValueError):
            kernels.count_in_region(np.ones((3, 2)), np.ones(2), "bogus")


class TestHillLogSum:
    def test_matches_math_log_loop(self):
        tail = np.sort(np.random.default_rng(1).pareto(2.0, 500) + 1.0)
        pivot = float(tail[0])
        expected = 0.0
        for v in tail.tolist():
            expected += math.log(v / pivot)
        assert kernels.hill_log_sum(tail, pivot) == pytest.approx(expected,
                                                                  rel=1e-12)

    def test_closed_form(self):
        tail = np.array([np.e, np.e ** 2])
        assert kernels.hill_log_sum(tail, 1.0) == pytest.approx(3.0)
