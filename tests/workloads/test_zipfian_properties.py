"""Property tests for the YCSB Zipfian generators.

The scenario platform's diurnal web workload leans on these
distributions, so the properties they promise get pinned here:
rank-frequency monotonicity across seeds, key-range bounds, and
per-seed determinism.
"""

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import WorkloadError
from repro.workloads.ycsb import (
    ScrambledZipfianGenerator,
    UniformGenerator,
    ZipfianGenerator,
    fnv_hash64,
)

SEEDS = (7, 42, 1234, 99991)
ITEMS = 500
DRAWS = 20_000


#: A theta at which ``1.0 + 0.5 ** theta`` is one ulp below ``zeta(2)``
#: (about 7 % of thetas), so only an exact two-item cut keeps a draw of
#: ``u`` just below 1.0 out of the formula branch.
TWO_ITEM_THETA = 0.011


class FixedDraws:
    """Stands in for ``random.Random``: ``random()`` returns ``draws``
    in order."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self):
        return next(self._draws)


def _draw(generator, count=DRAWS):
    return [generator.next() for _ in range(count)]


def per_call_formula(generator):
    """One item, computed as ``ZipfianGenerator.next`` did per call."""
    u = generator._rng.random()
    uz = u * generator._zetan
    if uz < 1.0:
        return 0
    if uz < 1.0 + 0.5 ** generator.theta:
        return 1
    return int(
        generator.item_count
        * (generator._eta * u - generator._eta + 1.0) ** generator._alpha
    )


class TestZipfianProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bounds(self, seed):
        gen = ZipfianGenerator(ITEMS, random.Random(seed))
        for value in _draw(gen, 5_000):
            assert 0 <= value < ITEMS

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rank_frequency_monotone_over_low_ranks(self, seed):
        """Frequency falls with rank, at rank gaps noise cannot cross.

        Adjacent ranks can swap under sampling noise, so monotonicity
        is pinned two robust ways: widely spaced individual ranks
        (0 > 3 > 10 > 30 > 100), and equal-width rank windows marching
        down the tail.
        """
        counts = Counter(_draw(ZipfianGenerator(ITEMS, random.Random(seed))))
        spaced = [counts.get(rank, 0) for rank in (0, 3, 10, 30, 100)]
        for index in range(len(spaced) - 1):
            assert spaced[index] > spaced[index + 1], (
                f"spaced ranks not monotone at seed {seed}: {spaced}"
            )
        windows = [
            sum(counts.get(rank, 0) for rank in range(low, low + 16))
            for low in (0, 16, 32, 48)
        ]
        for index in range(len(windows) - 1):
            assert windows[index] > windows[index + 1], (
                f"rank windows not monotone at seed {seed}: {windows}"
            )
        # And the head is heavy: rank 0 alone beats the uniform share 10x.
        assert counts.get(0, 0) > 10 * DRAWS / ITEMS

    @pytest.mark.parametrize("seed", SEEDS)
    def test_deterministic_per_seed(self, seed):
        first = _draw(ZipfianGenerator(ITEMS, random.Random(seed)), 2_000)
        second = _draw(ZipfianGenerator(ITEMS, random.Random(seed)), 2_000)
        assert first == second

    def test_different_seeds_differ(self):
        streams = {
            tuple(_draw(ZipfianGenerator(ITEMS, random.Random(seed)), 500))
            for seed in SEEDS
        }
        assert len(streams) == len(SEEDS)

    @pytest.mark.parametrize("theta", (0.2, 0.5, 0.99))
    def test_skew_grows_with_theta(self, theta):
        counts = Counter(
            _draw(ZipfianGenerator(ITEMS, random.Random(42), theta=theta))
        )
        top = counts.most_common(1)[0][1]
        # Stronger theta concentrates more mass on the hottest key.
        flat = Counter(
            _draw(ZipfianGenerator(ITEMS, random.Random(42), theta=0.1))
        ).most_common(1)[0][1]
        assert top >= flat

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 5_000),
        st.floats(0.01, 0.99),
        st.integers(0, 2**32),
        st.lists(st.integers(0, 60), min_size=1, max_size=5),
    )
    @example(items=2, theta=TWO_ITEM_THETA, seed=42, batches=[60, 7])
    def test_draw_equals_next_per_item(self, items, theta, seed, batches):
        """``draw(n)`` is ``n`` calls of ``next()`` and of the formula
        ``next()`` computed per call before ``draw`` became its body:
        the same items, and the twin generators' RNGs end in the same
        state."""
        batched = ZipfianGenerator(items, random.Random(seed), theta)
        single = ZipfianGenerator(items, random.Random(seed), theta)
        formula = ZipfianGenerator(items, random.Random(seed), theta)
        for count in batches:
            expected = [single.next() for _ in range(count)]
            assert batched.draw(count) == expected
            assert [per_call_formula(formula) for _ in range(count)] \
                == expected
        assert batched._rng.getstate() == single._rng.getstate()
        assert formula._rng.getstate() == single._rng.getstate()

    @pytest.mark.parametrize("theta", (TWO_ITEM_THETA, 0.5, 0.99))
    def test_two_items_draw_zero_or_one(self, theta):
        """With two items eta is 0/0, and the formula's limit draws item
        1 wherever ``u * zetan`` reaches 1.0.  That holds up to the
        largest ``u`` below 1.0, also at a theta where
        ``1.0 + 0.5 ** theta`` sits one ulp below ``zeta(2)``."""
        largest = 1.0 - 2.0 ** -53
        zetan = ZipfianGenerator._zeta(2, theta)
        draws = [0.0, 0.5, 1.0 / zetan, 0.75, largest]
        expected = [0 if u * zetan < 1.0 else 1 for u in draws]
        assert expected[-1] == 1
        batched = ZipfianGenerator(2, FixedDraws(draws), theta)
        single = ZipfianGenerator(2, FixedDraws(draws), theta)
        assert batched.draw(len(draws)) == expected
        assert [single.next() for _ in draws] == expected

    def test_two_item_theta_puts_the_second_cut_below_zeta2(self):
        """The theta the two-item tests use is one of the ulp cases."""
        assert 1.0 + 0.5 ** TWO_ITEM_THETA \
            < ZipfianGenerator._zeta(2, TWO_ITEM_THETA)
        assert (1.0 - 2.0 ** -53) * ZipfianGenerator._zeta(
            2, TWO_ITEM_THETA
        ) >= 1.0 + 0.5 ** TWO_ITEM_THETA

    def test_rejects_bad_parameters(self):
        with pytest.raises(WorkloadError):
            ZipfianGenerator(0, random.Random(1))
        with pytest.raises(WorkloadError):
            ZipfianGenerator(10, random.Random(1), theta=1.0)
        with pytest.raises(WorkloadError):
            ZipfianGenerator(10, random.Random(1), theta=0.0)


class TestScrambledZipfianProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bounds(self, seed):
        gen = ScrambledZipfianGenerator(ITEMS, random.Random(seed))
        for value in _draw(gen, 5_000):
            assert 0 <= value < ITEMS

    @pytest.mark.parametrize("seed", SEEDS)
    def test_deterministic_per_seed(self, seed):
        first = _draw(
            ScrambledZipfianGenerator(ITEMS, random.Random(seed)), 2_000
        )
        second = _draw(
            ScrambledZipfianGenerator(ITEMS, random.Random(seed)), 2_000
        )
        assert first == second

    @pytest.mark.parametrize("seed", SEEDS)
    def test_hottest_key_is_scrambled_rank_zero(self, seed):
        """Scrambling moves the hot head to fnv(0) % n, preserving the
        skew while scattering it over the keyspace."""
        counts = Counter(
            _draw(ScrambledZipfianGenerator(ITEMS, random.Random(seed)))
        )
        hottest, _ = counts.most_common(1)[0]
        assert hottest == fnv_hash64(0) % ITEMS

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_skew_as_unscrambled(self, seed):
        """Scrambling is a bijection of ranks: the sorted frequency
        profile matches the plain Zipfian stream draw for draw."""
        plain = Counter(_draw(ZipfianGenerator(ITEMS, random.Random(seed))))
        scrambled = Counter(
            _draw(ScrambledZipfianGenerator(ITEMS, random.Random(seed)))
        )
        plain_profile = sorted(plain.values(), reverse=True)
        scrambled_profile = sorted(scrambled.values(), reverse=True)
        # fnv collisions fold the odd cold key into a hotter one, so the
        # profiles are not byte-equal — but the head (where the mass is)
        # must agree within a few percent, rank for rank.
        for rank in range(10):
            expected = plain_profile[rank]
            actual = scrambled_profile[rank]
            assert abs(actual - expected) <= max(25, 0.05 * expected), (
                f"profile rank {rank}: plain {expected}, "
                f"scrambled {actual}"
            )


class TestUniformGenerator:
    def test_bounds_and_determinism(self):
        first = _draw(UniformGenerator(ITEMS, random.Random(42)), 2_000)
        second = _draw(UniformGenerator(ITEMS, random.Random(42)), 2_000)
        assert first == second
        assert all(0 <= value < ITEMS for value in first)

    def test_no_head(self):
        counts = Counter(_draw(UniformGenerator(ITEMS, random.Random(42))))
        top = counts.most_common(1)[0][1]
        assert top < 3 * DRAWS / ITEMS
