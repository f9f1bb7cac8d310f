"""Property tests for the shot partitioner shared by the mzi sampler and concat simulation."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from racsim import concat, mzi, qcore, qrac

STATE = qcore.maximally_entangled_state()
SETTINGS = mzi.protocol_settings(*qrac.steering_bases())
TREE = concat.build_tree(6)

shot_counts = st.integers(min_value=1, max_value=2000)
worker_counts = st.integers(min_value=1, max_value=4)


@settings(max_examples=200, deadline=None)
@given(shots=shot_counts, workers=worker_counts)
def test_spans_tile_the_shot_range_in_at_most_workers_spans(shots, workers):
    spans = mzi._partition(shots, workers)
    assert spans[0][0] == 0 and spans[-1][1] == shots
    assert all(hi == next_lo for (_, hi), (next_lo, _) in zip(spans, spans[1:]))
    assert all(lo < hi for lo, hi in spans)
    assert len(spans) <= workers


@settings(max_examples=100, deadline=None)
@given(shots=shot_counts, workers=worker_counts, seed=st.integers(0, 2**63 - 1))
# spans that start mid-block: (0, 5), (5, 9) and (0, 334), (334, 668), (668, 1001)
@example(shots=9, workers=2, seed=1)
@example(shots=1001, workers=3, seed=2)
def test_results_do_not_depend_on_worker_count(shots, workers, seed):
    one = mzi.sample_events(STATE, SETTINGS, shots, seed, workers=1, events=True)
    many = mzi.sample_events(STATE, SETTINGS, shots, seed, workers=workers, events=True)
    assert np.array_equal(many.counts, one.counts)
    for (p1, s1), (p2, s2) in zip(one.outcomes, many.outcomes):
        assert np.array_equal(p1, p2) and np.array_equal(s1, s2)
    bits = [seed >> k & 1 for k in range(TREE.n)]
    query = seed % TREE.n
    base = concat.simulate(TREE, bits, [query], shots, seed, workers=1)
    rerun = concat.simulate(TREE, bits, [query], shots, seed, workers=workers)
    assert rerun == base


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    stream_id=st.integers(0, 2**64 - 1),
    start=st.integers(0, 1000),
    draws=st.integers(0, 40),
)
@example(seed=1, stream_id=0, start=1, draws=7)
@example(seed=2, stream_id=3, start=6, draws=5)
def test_stream_resumes_at_any_start(seed, stream_id, start, draws):
    resumed = np.random.Generator(mzi.stream(seed, stream_id, start)).random(draws)
    whole = np.random.Generator(mzi.stream(seed, stream_id)).random(start + draws)
    assert np.array_equal(resumed, whole[start:])


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    stream_id=st.integers(0, 2**64 - 1),
    blocks=st.integers(0, 250),
    offset=st.sampled_from([1, 2, 3]),
    draws=st.integers(0, 40),
)
def test_raw_words_resume_where_doubles_do(seed, stream_id, blocks, offset, draws):
    # stream() discards start % 4 words; a Generator draws one double per word
    start = 4 * blocks + offset
    resumed = mzi.stream(seed, stream_id, start).random_raw(draws)
    whole = mzi.stream(seed, stream_id).random_raw(start + draws)
    assert np.array_equal(resumed, whole[start:])
    as_doubles = mzi.draws(mzi.stream(seed, stream_id, start), draws) * 2.0**-53
    whole_doubles = np.random.Generator(mzi.stream(seed, stream_id)).random(start + draws)
    assert np.array_equal(as_doubles, whole_doubles[start:])
