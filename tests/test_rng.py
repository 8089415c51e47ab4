import numpy as np
import pytest
from hypothesis import given, strategies as st

from qlock.rng import derive_rng

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


@pytest.mark.filterwarnings("error")
@given(
    seed=_SEEDS,
    label=_LABELS,
    k=st.integers(min_value=0, max_value=300),
    cut=st.integers(min_value=0, max_value=300),
)
def test_block_draw_equals_scalar_draws(seed, label, k, cut):
    # the noisy sampler fills its uniforms in chunks, each through
    # random(out=...): any split must give the scalar draws
    stream = derive_rng(seed, label, 0)
    scalar = [stream.random() for _ in range(k)]
    assert derive_rng(seed, label, 0).random(k).tolist() == scalar
    chunked = derive_rng(seed, label, 0)
    row = np.empty(k)
    chunked.random(out=row[: min(cut, k)])
    chunked.random(out=row[min(cut, k) :])
    assert row.tolist() == scalar
