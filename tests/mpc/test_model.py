"""Unit tests for MPCConfig capacity arithmetic."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.mpc.model import MPCConfig


class TestValidation:
    def test_p_positive(self):
        with pytest.raises(ValueError):
            MPCConfig(p=0)

    def test_eps_range(self):
        with pytest.raises(ValueError):
            MPCConfig(p=4, eps=Fraction(3, 2))
        with pytest.raises(ValueError):
            MPCConfig(p=4, eps=Fraction(-1, 2))

    def test_c_positive(self):
        with pytest.raises(ValueError):
            MPCConfig(p=4, c=0)

    def test_eps_coerced_to_fraction(self):
        config = MPCConfig(p=4, eps=Fraction(1, 2))
        assert config.eps == Fraction(1, 2)


class TestCapacity:
    def test_basic_model_divides_by_p(self):
        config = MPCConfig(p=16, eps=Fraction(0), c=1.0)
        assert config.capacity_bits(1600) == pytest.approx(100.0)

    def test_eps_half_divides_by_sqrt_p(self):
        config = MPCConfig(p=16, eps=Fraction(1, 2), c=1.0)
        assert config.capacity_bits(1600) == pytest.approx(400.0)

    def test_eps_one_is_degenerate(self):
        config = MPCConfig(p=16, eps=Fraction(1), c=1.0)
        assert config.capacity_bits(1600) == pytest.approx(1600.0)

    def test_constant_scales(self):
        small = MPCConfig(p=4, eps=Fraction(0), c=1.0)
        big = MPCConfig(p=4, eps=Fraction(0), c=3.0)
        assert big.capacity_bits(100) == pytest.approx(
            3 * small.capacity_bits(100)
        )

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            MPCConfig(p=4).capacity_bits(-1)

    def test_describe_mentions_parameters(self):
        text = MPCConfig(p=8, eps=Fraction(1, 3)).describe()
        assert "p=8" in text
        assert "1/3" in text
