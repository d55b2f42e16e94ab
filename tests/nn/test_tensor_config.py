"""Parameter container and dtype configuration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import default_dtype, dtype_scope, set_default_dtype
from repro.nn.tensor import Parameter


class TestParameter:
    def test_defaults(self):
        p = Parameter(np.ones((2, 3)), name="w")
        assert p.data.shape == (2, 3)
        assert p.size == 6
        assert not p.frozen
        assert np.all(p.grad == 0.0)

    def test_accumulate(self):
        p = Parameter(np.zeros(3))
        p.accumulate(np.ones(3))
        p.accumulate(np.ones(3))
        assert np.all(p.grad == 2.0)

    def test_frozen_blocks_accumulate(self):
        p = Parameter(np.zeros(3))
        p.frozen = True
        p.accumulate(np.ones(3))
        assert np.all(p.grad == 0.0)

    def test_copy_from_shape_check(self):
        p = Parameter(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            p.copy_from(Parameter(np.zeros((3, 3))))

    def test_copy_from_values(self):
        src = Parameter(np.full((2, 2), 7.0))
        dst = Parameter(np.zeros((2, 2)))
        dst.copy_from(src)
        assert np.all(dst.data == 7.0)
        # Copy, not alias.
        src.data[...] = 0.0
        assert np.all(dst.data == 7.0)


class TestDtypeConfig:
    def test_default_is_float32(self):
        assert default_dtype() == np.float32

    def test_scope_restores(self):
        with dtype_scope(np.float64):
            assert default_dtype() == np.float64
            assert Parameter(np.zeros(2)).data.dtype == np.float64
        assert default_dtype() == np.float32

    def test_non_float_rejected(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int32)
