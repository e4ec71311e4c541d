"""Deterministic RNG handling."""

import numpy as np
import pytest

from repro.rng import DEFAULT_SEED, make_rng, split_rng


class TestMakeRng:
    def test_int_seed_is_deterministic(self):
        a = make_rng(42).integers(0, 1000, 10)
        b = make_rng(42).integers(0, 1000, 10)
        assert (a == b).all()

    def test_different_seeds_differ(self):
        a = make_rng(1).integers(0, 1_000_000, 20)
        b = make_rng(2).integers(0, 1_000_000, 20)
        assert (a != b).any()

    def test_generator_passthrough(self):
        gen = np.random.default_rng(7)
        assert make_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        ss = np.random.SeedSequence(5)
        a = make_rng(ss).integers(0, 1000, 5)
        b = make_rng(np.random.SeedSequence(5)).integers(0, 1000, 5)
        assert (a == b).all()

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestSplitRng:
    def test_children_count(self):
        assert len(split_rng(3, 5)) == 5

    def test_children_independent_streams(self):
        a, b = split_rng(3, 2)
        assert (a.integers(0, 1 << 30, 10) != b.integers(0, 1 << 30, 10)).any()

    def test_deterministic(self):
        a1, _ = split_rng(9, 2)
        a2, _ = split_rng(9, 2)
        assert (a1.integers(0, 1 << 30, 10) == a2.integers(0, 1 << 30, 10)).all()

    def test_salt_changes_streams(self):
        (a,) = split_rng(9, 1, salt=0)
        (b,) = split_rng(9, 1, salt=1)
        assert (a.integers(0, 1 << 30, 10) != b.integers(0, 1 << 30, 10)).any()

    def test_none_seed_uses_default(self):
        (a,) = split_rng(None, 1)
        (b,) = split_rng(DEFAULT_SEED, 1)
        assert (a.integers(0, 1 << 30, 10) == b.integers(0, 1 << 30, 10)).all()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            split_rng(1, -1)

    def test_generator_seed_split(self):
        gen = np.random.default_rng(4)
        kids = split_rng(gen, 3)
        assert len(kids) == 3


class TestMergedBoundedDraws:
    """The stream invariants the GA's cached loop merges RNG calls on.

    numpy's bounded integer sampler takes each element's words from the
    bit generator in order (with rejection), both for a ``size=`` call
    and for a call with array bounds, so one array-bounds call draws
    exactly what the separate calls would: the same values and the same
    ``bit_generator.state``, including the buffered half-word
    (``has_uint32`` / ``uinteger``).  A numpy release that breaks this
    fails here by name rather than only through a schedule digest.
    """

    SEEDS = range(240)

    @staticmethod
    def _segments(rng):
        """Random (low, high, size) segments shaped like a GA generation's
        draw: pads, parents, cuts, plus a high-rejection bound near 2**31."""
        P = int(rng.integers(2, 41))
        w = int(rng.integers(2, 65))
        k = int(rng.integers(1, P + 1))
        pairs = (P + 1) // 2
        segments = [(0, k, P - k), (0, P, pairs), (0, P, pairs), (1, w, pairs)]
        for _ in range(int(rng.integers(0, 4))):
            high = int(rng.choice([2**31 + 1, 2**31 - 1, 2**31 + 3, 3 * 2**30 + 1]))
            segments.append((0, high, int(rng.integers(1, 8)) | 1))  # odd lengths
        segments.append((int(rng.integers(0, 5)), int(rng.integers(6, 40)),
                         int(rng.integers(0, 8))))
        order = rng.permutation(len(segments))
        return [segments[i] for i in order]

    @staticmethod
    def _warm(seed):
        """A generator whose half-word buffer is full or empty by seed."""
        gen = np.random.default_rng(seed)
        gen.integers(0, 10, size=seed % 3)
        return gen

    @pytest.mark.parametrize("as_array", [False, True])
    def test_array_bounds_call_equals_separate_calls(self, as_array):
        for seed in self.SEEDS:
            segments = self._segments(np.random.default_rng(10_000 + seed))
            separate, merged = self._warm(seed), self._warm(seed)
            expected = np.concatenate(
                [separate.integers(lo, hi, size=n) for lo, hi, n in segments]
            )
            lows = [lo for lo, _, n in segments for _ in range(n)]
            highs = [hi for _, hi, n in segments for _ in range(n)]
            if as_array:
                lows = np.array(lows, dtype=np.int64)
                highs = np.array(highs, dtype=np.int64)
            got = merged.integers(lows, highs)
            assert got.dtype == expected.dtype
            assert got.tolist() == expected.tolist(), seed
            assert merged.bit_generator.state == separate.bit_generator.state, seed

    def test_default_dtype_scalar_draw_equals_int64(self):
        for seed in self.SEEDS:
            plain, typed = self._warm(seed), self._warm(seed)
            bounds = np.random.default_rng(seed).integers(1, 70, size=50).tolist()
            bounds += [2**31 + 1, 2**31 - 1]
            for n in bounds:
                a = plain.integers(0, n)
                b = typed.integers(0, n, dtype=np.int64)
                assert type(a) is type(b) and a == b, seed
            assert plain.bit_generator.state == typed.bit_generator.state, seed

    def test_flat_random_equals_matrix_random(self):
        for seed in self.SEEDS:
            n, w = int(seed % 40) + 1, int(seed % 64) + 1
            flat, matrix = self._warm(seed), self._warm(seed)
            a = flat.random(n * w)
            b = matrix.random((n, w)).ravel()
            assert a.tobytes() == b.tobytes(), seed
            assert flat.bit_generator.state == matrix.bit_generator.state, seed
