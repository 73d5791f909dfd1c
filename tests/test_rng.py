import numpy as np
import pytest

from fieldlab.rng import stream, streams

# non-contiguous and unordered, so each draw must come from its own counter;
# the repointed counter is set from plain ints, whose high words must land
# where stream() puts them
REPLICATES = [9, 0, 700, 3, 2**40, 2**32, 2**63 - 1]

DRAWS = {
    "normal": lambda gen: gen.standard_normal(37),
    "exponential": lambda gen: gen.standard_exponential(37),
    "rademacher": lambda gen: gen.integers(0, 2, size=37),
}


class TestStreams:
    @pytest.mark.parametrize("kind", sorted(DRAWS))
    def test_each_generator_equals_its_stream(self, kind):
        draw = DRAWS[kind]
        got = [draw(gen) for gen in streams(4, "t", REPLICATES)]
        for rep, values in zip(REPLICATES, got):
            assert np.array_equal(values, draw(stream(4, "t", rep)))

    def test_mixed_draw_sizes_leave_no_buffered_state(self):
        # an odd number of 32-bit draws leaves half a word cached in the bit
        # generator; the next replicate must not see it
        got = []
        for gen in streams(2, "mix", REPLICATES):
            got.append((gen.integers(0, 2**31, size=3, dtype=np.uint32),
                        gen.standard_normal(5)))
        for rep, (ints, normals) in zip(REPLICATES, got):
            ref = stream(2, "mix", rep)
            assert np.array_equal(ints, ref.integers(0, 2**31, size=3, dtype=np.uint32))
            assert np.array_equal(normals, ref.standard_normal(5))

    def test_rejects_negative_replicate(self):
        with pytest.raises(ValueError, match="nonnegative"):
            list(streams(0, "t", [1, -1]))
