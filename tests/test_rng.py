import numpy as np
import pytest
from hypothesis import given, strategies as st

from qlock.rng import derive_rng, philox_keys

_SEEDS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]),
    st.integers(min_value=-(2**64), max_value=-1),
    st.integers(min_value=0, max_value=2**64 - 1),
)
# string labels, and int labels of one and two 32-bit words (negative ones wrap to two)
_LABELS = st.one_of(
    st.text(max_size=6),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2**32, max_value=2**64 - 1),
    st.integers(min_value=-(2**63), max_value=-1),
)


def _key(seed, *path):
    return derive_rng(seed, *path).bit_generator.state["state"]["key"]


@pytest.mark.filterwarnings("error")
@given(
    seed=_SEEDS,
    path=st.lists(_LABELS, max_size=3),
    count=st.integers(min_value=1, max_value=3000),
    start=st.one_of(st.just(0), st.integers(min_value=0, max_value=2**32 - 3000)),
    data=st.data(),
)
def test_philox_keys_match_derive_rng(seed, path, count, start, data):
    keys = philox_keys(seed, *path, count=count, start=start)
    assert keys.shape == (count, 2) and keys.dtype == np.uint64
    rows = data.draw(st.lists(st.integers(min_value=0, max_value=count - 1), max_size=12))
    for row in {0, count - 1, *rows}:
        assert np.array_equal(keys[row], _key(seed, *path, start + row))


@pytest.mark.filterwarnings("error")
def test_philox_keys_match_every_stream():
    for seed, path in ((7, ("traj", 3)), (2**64 - 1, ("traj", 2**32 + 3)), (-1, ())):
        expected = [_key(seed, *path, i) for i in range(2000)]
        assert np.array_equal(philox_keys(seed, *path, count=2000), expected)
    last = philox_keys(5, "x", count=2, start=2**32 - 2)
    assert np.array_equal(last[-1], _key(5, "x", 2**32 - 1))


def test_philox_keys_refuse_indices_beyond_one_word():
    for count, start in ((2, 2**32 - 1), (-1, 0), (1, -1)):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            philox_keys(0, "traj", count=count, start=start)


@pytest.mark.filterwarnings("error")
@given(seed=_SEEDS, label=_LABELS, k=st.integers(min_value=0, max_value=300))
def test_block_draw_equals_scalar_draws(seed, label, k):
    # the noisy sampler draws a stream's uniforms as one block, through a reused
    # generator set to the stream's key: both must give the scalar draws
    stream = derive_rng(seed, label, 0)
    scalar = [stream.random() for _ in range(k)]
    assert derive_rng(seed, label, 0).random(k).tolist() == scalar
    bitgen = np.random.Philox(0)
    reused = np.random.Generator(bitgen)
    state = bitgen.state
    reused.random(3)  # the key, counter and buffer set below replace what it held
    state["state"]["key"] = philox_keys(seed, label, count=1)[0]
    bitgen.state = state
    row = np.empty(k)
    reused.random(out=row)
    assert row.tolist() == scalar
