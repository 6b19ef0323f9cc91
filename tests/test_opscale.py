import numpy as np
import pytest

from opertail import DiagExponent


class TestDiagExponent:
    def test_derived_scalars(self):
        e = DiagExponent([1.0, 2.0, 2.0])
        assert e.lam_max == 2.0
        assert e.argmax_set == (1, 2)

    @pytest.mark.parametrize("bad", [[0.0, 1.0], [-1.0], [np.nan], []])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            DiagExponent(bad)
