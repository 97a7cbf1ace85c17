import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llt.embedding import embed_class
from llt.linear_law import correlation
from llt.types import Beat, Label

from conftest import embed_series, random_beats


def test_embed_series_indexing():
    rows = embed_series([1, 2, 3, 4, 5], 3)
    assert rows.tolist() == [[3, 2, 1], [4, 3, 2], [5, 4, 3]]


def test_embed_row_count():
    beat = Beat(samples=np.arange(30.0))
    assert embed_class([beat], 12).rows == 19


def test_embed_full_width_is_reversed_series():
    s = np.array([1.0, 2.0, 3.0, 4.0])
    rows = embed_series(s, 4)
    assert rows.shape == (1, 4)
    assert rows[0].tolist() == [4, 3, 2, 1]


def test_embed_width_bounds():
    beat = Beat(samples=np.arange(5.0))
    for width in (6, 1, 0, -1):
        with pytest.raises(ValueError):
            embed_class([beat], width)


def test_embed_class_blocks_and_provenance():
    beats = [Beat(samples=np.arange(5.0)), Beat(samples=np.arange(5.0, 10.0))]
    em = embed_class(beats, 3)
    assert em.rows == 6
    # row m * 3 + j is the window of beat m ending at sample j + 2
    for r in range(em.rows):
        m, k = divmod(r, 3)
        for i in range(3):
            assert em.data[r, i] == beats[m].samples[k + 2 - i]


def test_embed_class_empty():
    with pytest.raises(ValueError, match="^no beat to embed$"):
        embed_class([], 3)


def test_embed_class_mixed_lengths():
    beats = [Beat(samples=np.arange(5.0)), Beat(samples=np.arange(6.0))]
    with pytest.raises(ValueError, match=r"beat 1: length 6 != corpus length 5"):
        embed_class(beats, 3)


def test_clinical_scale_row_count():
    # (30 - 12 + 1) * 3408 rows for the full normal training class
    assert (30 - 12 + 1) * 3408 == 64752


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=6, max_size=20),
    st.integers(2, 6),
)
def test_overlap_law(values, width):
    if width > len(values):
        width = len(values)
    rows = embed_series(np.array(values), width)
    for r in range(len(rows) - 1):
        for i in range(width - 1):
            assert rows[r + 1][i + 1] == rows[r][i]


@settings(max_examples=50, deadline=None)
@example(1, 7, 7, 0)  # width == L: one row per beat
@example(4, 7, 7, 1)
@given(
    st.integers(1, 6),
    st.integers(2, 12),
    st.integers(2, 12),
    st.integers(0, 2**32 - 1),
)
def test_embed_class_stacks_per_beat_embeddings(n_beats, length, width, seed):
    rng = np.random.default_rng(seed)
    beats = [Beat(samples=rng.standard_normal(length)) for _ in range(n_beats)]
    if width > length:
        with pytest.raises(ValueError, match="exceeds series length"):
            embed_class(beats, width)
        return
    em = embed_class(beats, width)
    expected = np.vstack([embed_series(b.samples, width) for b in beats])
    assert em.data.flags.c_contiguous
    assert em.data.dtype == expected.dtype
    assert np.array_equal(em.data, expected)


def test_row_permutation_leaves_correlation_unchanged():
    beats = random_beats(6, 10, seed=3)
    C1 = correlation(embed_class(beats, 4))
    perm = [4, 0, 5, 2, 1, 3]
    C2 = correlation(embed_class([beats[i] for i in perm], 4))
    assert np.allclose(C1, C2, atol=1e-12)
