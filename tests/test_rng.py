import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qlock.rng import _label_hash, derive_rng

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


def _spawned(seed, *path) -> np.random.Generator:
    """The stream as ``SeedSequence``'s own entropy/spawn-key form derives it."""
    components = tuple(
        int(p) & (2**64 - 1) if isinstance(p, (int, np.integer)) else _label_hash(str(p)) for p in path
    )
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=components)
    return np.random.Generator(np.random.Philox(ss))


_COMPONENTS = st.one_of(
    _LABELS,
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=0, max_value=2**64 - 1).map(np.uint64),
)


@given(seed=_SEEDS, path=st.lists(_COMPONENTS, max_size=4))
@example(seed=0, path=[])
@example(seed=2**32 - 1, path=[])
@example(seed=2**32, path=["eval-arm", 0, "reference"])
@example(seed=2**64 - 1, path=[np.int64(-1), 2**32, ""])
@example(seed=-5, path=["wrong-keys"])
def test_derive_rng_matches_the_spawn_key_form(seed, path):
    # derive_rng hands SeedSequence the uint32 words it would assemble itself;
    # the entropy pool, so every draw, must be unchanged
    want = _spawned(seed, *path)
    got = derive_rng(seed, *path)
    assert got.integers(2**63, size=4).tolist() == want.integers(2**63, size=4).tolist()
    assert got.random(3).tolist() == want.random(3).tolist()
