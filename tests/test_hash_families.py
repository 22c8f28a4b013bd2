"""Tests for the hash-family substrate (universal, k-wise, tabulation, etc.)."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.exceptions import ParameterError
from repro.hashing import (
    KWiseHash,
    LazyUniformHash,
    MultiplyShiftHash,
    PairwiseHash,
    RandomOracle,
    SiegelHash,
    TabulationHash,
    required_independence,
)


class TestPairwiseHash:
    def test_range_respected(self):
        h = PairwiseHash(10_000, 97, rng=random.Random(1))
        assert all(0 <= h(x) < 97 for x in range(0, 10_000, 37))

    def test_deterministic_for_fixed_draw(self):
        h = PairwiseHash(1000, 50, rng=random.Random(3))
        assert [h(x) for x in range(100)] == [h(x) for x in range(100)]

    def test_distinct_draws_differ(self):
        first = PairwiseHash(1000, 1000, rng=random.Random(1))
        second = PairwiseHash(1000, 1000, rng=random.Random(2))
        assert any(first(x) != second(x) for x in range(200))

    def test_roughly_uniform(self):
        h = PairwiseHash(100_000, 16, rng=random.Random(7))
        counts = Counter(h(x) for x in range(4096))
        expected = 4096 / 16
        assert all(0.5 * expected < counts[b] < 1.5 * expected for b in range(16))

    def test_out_of_range_key_rejected(self):
        h = PairwiseHash(100, 10, rng=random.Random(1))
        with pytest.raises(ParameterError):
            h(100)
        with pytest.raises(ParameterError):
            h(-1)

    def test_space_is_two_field_elements(self):
        h = PairwiseHash(1 << 20, 1 << 10, rng=random.Random(1))
        assert h.space_bits() == 2 * h._prime.bit_length()

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            PairwiseHash(0, 10)
        with pytest.raises(ParameterError):
            PairwiseHash(10, 0)


class TestMultiplyShiftHash:
    def test_requires_power_of_two_range(self):
        with pytest.raises(ParameterError):
            MultiplyShiftHash(100, 12)

    def test_range_respected(self):
        h = MultiplyShiftHash(1 << 16, 64, rng=random.Random(2))
        assert all(0 <= h(x) < 64 for x in range(0, 1 << 16, 257))

    def test_range_one_is_constant_zero(self):
        h = MultiplyShiftHash(128, 1, rng=random.Random(2))
        assert all(h(x) == 0 for x in range(128))

    def test_roughly_uniform(self):
        h = MultiplyShiftHash(1 << 20, 32, rng=random.Random(5))
        counts = Counter(h(x * 977 % (1 << 20)) for x in range(8192))
        expected = 8192 / 32
        assert all(0.4 * expected < counts[b] < 1.6 * expected for b in range(32))


class TestKWiseHash:
    def test_required_independence_grows_slowly(self):
        low = required_independence(64, 0.2)
        high = required_independence(1 << 14, 0.01)
        assert 4 <= low <= high <= 64

    def test_range_respected(self):
        h = KWiseHash(10_000, 128, independence=6, rng=random.Random(4))
        assert all(0 <= h(x) < 128 for x in range(0, 10_000, 17))

    def test_explicit_coefficients_reproducible(self):
        a = KWiseHash(1000, 64, independence=3, coefficients=[5, 7, 11])
        b = KWiseHash(1000, 64, independence=3, coefficients=[5, 7, 11])
        assert [a(x) for x in range(100)] == [b(x) for x in range(100)]

    def test_coefficient_count_validated(self):
        with pytest.raises(ParameterError):
            KWiseHash(1000, 64, independence=3, coefficients=[1, 2])

    def test_space_scales_with_independence(self):
        small = KWiseHash(1 << 16, 64, independence=2, rng=random.Random(1))
        large = KWiseHash(1 << 16, 64, independence=10, rng=random.Random(1))
        assert large.space_bits() == 5 * small.space_bits()

    def test_degree_one_behaves_like_constant(self):
        h = KWiseHash(100, 16, independence=1, coefficients=[9])
        assert all(h(x) == 9 % 16 for x in range(100))


class TestTabulationHash:
    def test_for_universe_requires_powers_of_two(self):
        with pytest.raises(ParameterError):
            TabulationHash.for_universe(100, 16)
        with pytest.raises(ParameterError):
            TabulationHash.for_universe(128, 12)

    def test_range_respected(self):
        h = TabulationHash.for_universe(1 << 16, 1 << 6, rng=random.Random(8))
        assert all(0 <= h(x) < (1 << 6) for x in range(0, 1 << 16, 101))

    def test_key_bounds_enforced(self):
        h = TabulationHash(key_bits=8, value_bits=4, rng=random.Random(1))
        with pytest.raises(ParameterError):
            h(256)

    def test_space_counts_table_entries(self):
        h = TabulationHash(key_bits=16, value_bits=8, character_bits=8, rng=random.Random(1))
        assert h.space_bits() == 2 * 256 * 8


class TestLazyUniformAndSiegel:
    def test_values_memoised(self):
        h = LazyUniformHash(1 << 20, 64, capacity=100, rng=random.Random(3))
        assert h(12345) == h(12345)

    @pytest.mark.parametrize(
        "family", [LazyUniformHash, SiegelHash], ids=["uniform", "siegel"]
    )
    def test_same_seed_same_function(self, family):
        kwargs = {"capacity": 8} if family is LazyUniformHash else {}
        first = family(1 << 20, 256, rng=random.Random(3), **kwargs)
        second = family(1 << 20, 256, rng=random.Random(3), **kwargs)
        other = family(1 << 20, 256, rng=random.Random(4), **kwargs)
        keys = range(0, 1 << 20, 997)
        assert [first(key) for key in keys] == [second(key) for key in keys]
        assert [first(key) for key in keys] != [other(key) for key in keys]

    def test_space_charged_at_capacity(self):
        h = LazyUniformHash(1 << 20, 64, capacity=50, rng=random.Random(3))
        assert h.space_bits() == 50 * 6

    def test_siegel_defaults(self):
        h = SiegelHash(1 << 18, 256, rng=random.Random(2))
        assert all(0 <= h(key) < 256 for key in range(100))
        assert h.space_bits() == 256


class TestRandomOracle:
    def test_deterministic_given_seed(self):
        a = RandomOracle(1 << 20, 1 << 16, seed=99)
        b = RandomOracle(1 << 20, 1 << 16, seed=99)
        assert [a(x) for x in range(200)] == [b(x) for x in range(200)]

    def test_different_seeds_differ(self):
        a = RandomOracle(1 << 20, 1 << 16, seed=1)
        b = RandomOracle(1 << 20, 1 << 16, seed=2)
        assert any(a(x) != b(x) for x in range(200))

    def test_uniformity(self):
        oracle = RandomOracle(1 << 20, 4, seed=5)
        counts = Counter(oracle(x) for x in range(8000))
        assert all(1700 < counts[v] < 2300 for v in range(4))

    def test_space_is_zero_by_convention(self):
        assert RandomOracle(100, 10, seed=1).space_bits() == 0

    def test_key_validation(self):
        oracle = RandomOracle(100, 10, seed=1)
        with pytest.raises(ParameterError):
            oracle(100)
