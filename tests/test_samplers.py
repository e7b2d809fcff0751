"""Sampler correctness: stream discipline, validity, and uniformity."""

import math
import os
import pickle
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypercouple import oracle
from hypercouple import (
    DomainError,
    InadmissiblePrefixError,
    OrderedHypergraph,
    Params,
    RejectionBudgetError,
    Pcg64Lanes,
    Pcg64Stream,
    RngStream,
    count_extensions,
    focus_count,
    is_simple,
    sample_gnm,
    sample_gnp,
    sample_multi_extension,
    sample_regular,
)
from hypercouple.samplers import (
    _configuration_rejection,
    _residual_vector,
    exact_simplicity_from_count,
    seed_words,
    simplicity_probability,
    trial_seed_words,
)
from hypercouple.stats import tv_distance_uniform


class TestRngStream:
    def test_same_path_same_bits(self):
        a = RngStream(42, (1, 2)).generator().integers(0, 1 << 30, 8)
        b = RngStream(42, (1, 2)).generator().integers(0, 1 << 30, 8)
        assert np.array_equal(a, b)

    def test_children_diverge(self):
        root = RngStream(42)
        a = root.child(0).generator().integers(0, 1 << 30, 8)
        b = root.child(1).generator().integers(0, 1 << 30, 8)
        assert not np.array_equal(a, b)

    def test_child_equals_explicit_path(self):
        a = RngStream(7).child(3, 1).generator().integers(0, 1 << 30, 4)
        b = RngStream(7, (3, 1)).generator().integers(0, 1 << 30, 4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed, path", [
        (-1, ()), (1, (-2,)), (1, (3, -1)), (1.5, ()), ("7", ()), (1, (0.5,)),
        (1, 3)])
    def test_bad_seed_or_path_is_refused_at_construction(self, seed, path):
        with pytest.raises(DomainError, match="seed and path must be"):
            RngStream(seed, path)

    def test_child_with_a_negative_index_is_refused(self):
        with pytest.raises(DomainError, match="non-negative"):
            RngStream(4).child(1, -1)

    def test_integer_like_seeds_are_stored_as_ints(self):
        stream = RngStream(np.int64(5), (np.uint32(2),))
        assert stream == RngStream(5, (2,))
        assert type(stream.seed) is int and type(stream.path[0]) is int


class TestTrialStreams:
    """`RngStream.trials` seeds a batch of trial streams in one pass; each
    must be the stream (seed, (i,)) that numpy's own seeding gives."""

    COUNT = 70_000

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 7,
                                      (1 << 199) + 12345])
    def test_bulk_words_are_numpys_seed_words(self, seed):
        words = trial_seed_words(seed, self.COUNT)
        assert words.shape == (self.COUNT, 4) and words.dtype == np.uint64
        for i in (0, 1, 65_539, self.COUNT - 1):
            ss = np.random.SeedSequence(seed, spawn_key=(i,))
            assert np.array_equal(words[i], ss.generate_state(4, np.uint64))

    def test_bulk_streams_draw_what_the_plain_streams_draw(self):
        streams = RngStream.trials(2024, 300)
        assert len(streams) == 300
        for i in (0, 1, 123, 299):
            plain = RngStream(2024, (i,))
            assert streams[i]._words is not None
            assert streams[i] == plain and hash(streams[i]) == hash(plain)
            assert repr(streams[i]) == repr(plain)
            a = streams[i].generator()
            b = plain.generator()
            assert np.array_equal(a.integers(0, 1 << 62, 16),
                                  b.integers(0, 1 << 62, 16))
            assert a.random() == b.random()
            assert a.bit_generator.state == b.bit_generator.state

    def test_bulk_streams_below_a_path_are_its_children(self):
        parent = RngStream(7, (2, 5))
        streams = RngStream.trials(7, 4, (2, 5, 3))
        assert streams == [parent.child(3, i) for i in range(4)]
        assert [s.words for s in streams] == [
            parent.child(3, i).words for i in range(4)]
        with pytest.raises(DomainError, match="non-negative"):
            RngStream.trials(7, 4, (2, -1))

    def test_bulk_streams_keep_their_words_through_pickle(self):
        stream = RngStream.trials(5, 4)[3]
        copy = pickle.loads(pickle.dumps(stream))
        assert copy._words is not None
        assert np.array_equal(copy._words, stream._words)
        assert np.array_equal(copy.generator().integers(0, 1 << 30, 8),
                              RngStream(5, (3,)).generator()
                              .integers(0, 1 << 30, 8))

    def test_empty_batch(self):
        assert RngStream.trials(3, 0) == []
        assert trial_seed_words(3, 0).shape == (0, 4)

    def test_negative_seed_is_a_domain_error(self):
        with pytest.raises(DomainError, match="non-negative"):
            trial_seed_words(-1, 3)
        with pytest.raises(DomainError, match="non-negative"):
            RngStream.trials(-1, 3)


class TestSeedWords:
    """`seed_words` and `trial_seed_words` are numpy's SeedSequence words for
    any path, and every kind of stream starts from them."""

    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 7,
                                      2**128, (1 << 199) + 12345])
    @pytest.mark.parametrize("path", [(), (0,), (5,), (3, 9), (2**32,),
                                      (2**32 + 5, 1), (1, 2**70 + 3),
                                      (0, 0, 0, 0, 0)])
    def test_words_are_numpys_seed_words(self, seed, path):
        ss = np.random.SeedSequence(seed, spawn_key=path)
        expected = ss.generate_state(4, np.uint64).tolist()
        assert list(seed_words(seed, path)) == expected
        assert list(RngStream(seed, path).words) == expected
        assert all(type(w) is int for w in seed_words(seed, path))

    @pytest.mark.parametrize("seed", [0, 2**130 + 1])
    @pytest.mark.parametrize("path", [(), (4,), (2**33,)])
    def test_trial_rows_extend_the_path(self, seed, path):
        words = trial_seed_words(seed, 300, path)
        assert words.shape == (300, 4) and words.dtype == np.uint64
        for i in (0, 1, 299):
            ss = np.random.SeedSequence(seed, spawn_key=path + (i,))
            assert np.array_equal(words[i], ss.generate_state(4, np.uint64))

    def test_bad_path_is_a_domain_error(self):
        with pytest.raises(DomainError, match="non-negative"):
            seed_words(3, (1, -1))
        with pytest.raises(DomainError, match="non-negative"):
            trial_seed_words(3, 2, (-1,))

    @pytest.mark.parametrize("seed, path", [(0, ()), (11, (3,)),
                                            (2**64 + 1, (2**40, 6))])
    def test_streams_start_where_numpys_pcg64_starts(self, seed, path):
        ss = np.random.SeedSequence(seed, spawn_key=path)
        reference = np.random.Generator(np.random.PCG64(ss))
        stream = RngStream(seed, path)
        assert stream.generator().bit_generator.state == \
            reference.bit_generator.state
        assert Pcg64Stream.of(stream).state == reference.bit_generator.state


def _random_integers_call(rnd: random.Random):
    """(low, high, size) for one `integers` call, over the ranges that take
    each branch of numpy's bounded draw."""
    span = rnd.choice([
        1,                                  # no draw at all
        1 << 32,                            # one raw uint32
        (1 << 31) + 1,                      # 32-bit Lemire, rejects ~1/2
        rnd.randrange(2, 1 << 32),          # 32-bit Lemire
        rnd.randrange(2, 50),
        rnd.randrange((1 << 32) + 1, 1 << 63),  # 64-bit Lemire
        (1 << 63) - rnd.randrange(1 << 20),     # 64-bit, rejects often
    ])
    low = rnd.randrange(-(1 << 40), 1 << 40) if span < 1 << 62 else 0
    size = rnd.choice([None, None, None, 0, 1, rnd.randrange(2, 9)])
    return low, low + span, size


class TestPcg64Stream:
    """The pure-Python PCG64 draws what numpy's PCG64 Generator draws."""

    def test_integers_match_numpy_draw_for_draw(self):
        rnd = random.Random(2024)
        for trial in range(40):
            gen = np.random.Generator(np.random.PCG64(trial))
            stream = Pcg64Stream.of(RngStream(trial))
            stream.state = gen.bit_generator.state
            for _ in range(150):
                low, high, size = _random_integers_call(rnd)
                if rnd.random() < 0.3:
                    # a one-argument call is [0, high)
                    high = high - low
                    expected = gen.integers(high, size=size)
                    got = stream.integers(high, size=size)
                else:
                    expected = gen.integers(low, high, size=size)
                    got = stream.integers(low, high, size=size)
                if size is None:
                    assert got == int(expected)
                    assert type(got) is int
                else:
                    assert got == expected.tolist()
            assert stream.state == gen.bit_generator.state

    def test_every_branch_is_taken(self):
        # the comparison above reaches each case of numpy's bounded draw
        stream = Pcg64Stream.of(RngStream(1))
        before = stream.state
        assert stream.integers(5, 6) == 5 and stream.state == before
        stream.integers(0, 1 << 32)
        assert stream.state["has_uint32"] == 1
        stream.integers(0, 1 << 32)
        assert stream.state["has_uint32"] == 0
        # a range of 2^31 + 1 rejects about half of its raw draws, so 400
        # draws take about 800 raw uint32s
        start = stream.state
        stream.integers((1 << 31) + 1, size=400)
        replay = Pcg64Stream.of(RngStream(1))
        replay.state = start
        raw = 0
        while replay.state != stream.state:
            replay.next_uint32()
            raw += 1
        assert 700 < raw < 900

    def test_empty_or_oversized_range_is_refused(self):
        stream = Pcg64Stream.of(RngStream(1))
        for low, high in [(3, 3), (4, 2), (0, (1 << 63) + 1)]:
            with pytest.raises(DomainError, match="integers range"):
                stream.integers(low, high)

    @pytest.mark.parametrize("odd", [False, True])
    def test_generator_round_trip(self, odd):
        # an odd count of uint32 draws leaves the half-word buffer set, and
        # the handoff carries it to the lent Generator and back
        stream = Pcg64Stream.of(RngStream(99))
        reference = np.random.default_rng(99)
        for _ in range(5 if odd else 4):
            stream.next_uint32()
        with stream.handoff() as lent:
            lent.random(3)
        stream.integers(10, size=3)
        reference.integers(1 << 32, size=5 if odd else 4)
        reference.random(3)
        reference.integers(10, size=3)
        assert stream.state == reference.bit_generator.state
        assert stream.state["has_uint32"] == int(not odd)

    def test_handoff_lends_the_seeding_streams_generator(self):
        # the first handoff builds the Generator through
        # `RngStream.generator`, the one seeding path; later ones reuse it
        calls = []

        class Counted(RngStream):
            def generator(self):
                calls.append(self)
                return super().generator()

        stream = Pcg64Stream.of(Counted(4))
        with stream.handoff() as first:
            first.random()
        with stream.handoff() as second:
            second.random()
        assert first is second and len(calls) == 1

    def test_handoff_positions_a_generator_at_the_stream(self):
        stream = Pcg64Stream.of(RngStream(8, (1,)))
        reference = RngStream(8, (1,)).generator()
        stream.integers(7)
        reference.integers(7)
        with stream.handoff() as gen:
            assert gen.bit_generator.state == reference.bit_generator.state
            assert np.array_equal(gen.permutation(9),
                                  reference.permutation(9))
        assert stream.integers(1 << 40) == int(reference.integers(1 << 40))
        assert stream.state == reference.bit_generator.state

    def test_gnm_leaves_the_stream_where_numpy_would(self):
        stream = Pcg64Stream.of(RngStream(5))
        reference = np.random.default_rng(5)
        graph = sample_gnm(7, 3, 20, stream)
        for t in range(20):
            reference.integers(t, 35)
        assert stream.state == reference.bit_generator.state
        assert len(graph) == 20

    def test_a_stream_passes_through(self):
        stream = Pcg64Stream.of(RngStream(3))
        assert Pcg64Stream.of(stream) is stream

    def test_generators_and_other_objects_are_refused(self):
        for bit_generator in (np.random.PCG64(0), np.random.MT19937(0),
                              np.random.Philox(0)):
            with pytest.raises(DomainError, match="expected RngStream or "
                                                  "Pcg64Stream, got"):
                Pcg64Stream.of(np.random.Generator(bit_generator))
        for other in (31337, RngStream(3).words, None):
            with pytest.raises(DomainError, match="expected RngStream"):
                Pcg64Stream.of(other)


# every case of numpy's bounded draw: no draw, Lemire on 32 bits (2^31 + 1
# rejects about half its raw draws), one raw uint32, Lemire on 64 bits
# (3 * 2^61 rejects a quarter)
LANE_RANGES = [1, 2, 20, (1 << 31) + 1, 1 << 32, (1 << 32) + 1, 1 << 62,
               3 << 61]


def _lane_streams(seed, count, start=0):
    return [Pcg64Stream(RngStream(seed, (start + i,))) for i in range(count)]


class TestPcg64Lanes:
    """Lane i of `Pcg64Lanes` draws what the `Pcg64Stream` of trial
    start + i draws, and is at the same state after every draw."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 1 << 40), count=st.integers(1, 5),
           start=st.integers(0, 3),
           calls=st.lists(st.tuples(
               st.lists(st.sampled_from(LANE_RANGES), min_size=5,
                        max_size=5),
               st.lists(st.booleans(), min_size=5, max_size=5),
               st.booleans()), min_size=1, max_size=30))
    def test_every_draw_and_state_is_the_streams(self, seed, count, start,
                                                 calls):
        # 30 calls read past the half-words laid out at once
        lanes = Pcg64Lanes(seed, count, start=start)
        streams = _lane_streams(seed, count, start)
        for highs, chosen, check in calls:
            rows = [i for i in range(count) if chosen[i]]
            if len(set(highs)) == 1:
                got = lanes.integers(highs[0], np.array(rows, dtype=np.intp))
            else:
                got = lanes.integers(np.array([highs[i] for i in rows],
                                              dtype=np.uint64), rows)
            assert got.dtype == np.uint64
            assert got.tolist() == [streams[i].integers(highs[i])
                                    for i in rows]
            if check:
                # the exported state, half-word buffer included
                assert [lanes.stream(i).state for i in range(count)] == \
                    [stream.state for stream in streams]
        assert [lanes.stream(i).state for i in range(count)] == \
            [stream.state for stream in streams]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 1 << 40), count=st.integers(1, 5),
           before=st.integers(0, 21),
           highs=st.lists(st.sampled_from(LANE_RANGES), max_size=24))
    def test_draws_in_turn_are_the_streams(self, seed, count, before, highs):
        lanes = Pcg64Lanes(seed, count)
        streams = _lane_streams(seed, count)
        # an odd number of uint32 draws first leaves a half-word buffered,
        # and many run past the half-words laid out at once
        lanes.integers_in_turn([1 << 32] * before)
        for stream in streams:
            stream.integers(1 << 32, size=before)
        got = lanes.integers_in_turn(highs)
        assert got.shape == (count, len(highs))
        assert got.tolist() == [[stream.integers(h) for h in highs]
                                for stream in streams]
        assert [lanes.stream(i).state for i in range(count)] == \
            [stream.state for stream in streams]

    def test_lanes_match_numpy_generators(self):
        lanes = Pcg64Lanes(17, 4, start=2)
        gens = [RngStream(17, (2 + i,)).generator() for i in range(4)]
        for high in LANE_RANGES * 3:
            got = lanes.integers(high)
            assert got.tolist() == [int(gen.integers(high)) for gen in gens]
        assert [lanes.stream(i).state for i in range(4)] == \
            [gen.bit_generator.state for gen in gens]

    def test_rejecting_lanes_alone_draw_again(self):
        # at 2^31 + 1 about half the lanes reject; the others must not move
        lanes = Pcg64Lanes(5, 64)
        streams = _lane_streams(5, 64)
        for _ in range(6):
            assert lanes.integers((1 << 31) + 1).tolist() == \
                [stream.integers((1 << 31) + 1) for stream in streams]
        assert [lanes.stream(i).state for i in range(64)] == \
            [stream.state for stream in streams]

    def test_a_lane_hands_on_its_stream(self):
        lanes = Pcg64Lanes(8, 3, start=10)
        stream = lanes.stream(2)
        assert stream._rng == RngStream(8, (12,))
        assert stream.state == Pcg64Stream(RngStream(8, (12,))).state
        lanes.integers(7)
        stream = lanes.stream(1)
        reference = Pcg64Stream(RngStream(8, (11,)))
        reference.integers(7)
        assert stream.state == reference.state
        # the handed-on stream continues on its own, Generator included
        with stream.handoff() as gen, reference.handoff() as ref:
            assert gen.permutation(6).tolist() == ref.permutation(6).tolist()

    def test_bad_ranges_and_sizes_are_refused(self):
        lanes = Pcg64Lanes(1, 2)
        for high in (0, (1 << 63) + 1):
            with pytest.raises(DomainError, match="integers range"):
                lanes.integers(high)
        with pytest.raises(DomainError, match="integers range"):
            lanes.integers(np.array([3, 0], dtype=np.uint64))
        with pytest.raises(DomainError, match="lanes need"):
            Pcg64Lanes(1, 0)
        with pytest.raises(DomainError, match="non-negative"):
            Pcg64Lanes(1, 2, start=-1)


def test_exact_couple_never_imports_numpy_random(tmp_path):
    # exact `couple` draws only bounded integers, all from Pcg64Stream
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    probe = "; ".join([
        "import sys",
        "from hypercouple import experiments as ex",
        "from hypercouple import CouplingConfig, Params, RngStream, "
        "run_coupling, choose_epsilon",
        "cfg = ex.config_from_args(['couple', '--n', '6', '--k', '3', "
        "'--d', '2', '--gamma', '0.75', '--trials', '20', '--jobs', '1', "
        f"'--out', {str(tmp_path / 'out')!r}])",
        "ex.run_experiment(cfg)",
        "print('numpy.random' in sys.modules)",
        "p = Params(7, 3, 3)",
        "run_coupling(CouplingConfig(p, 4 / 7, choose_epsilon(p, 4 / 7)), "
        "RngStream(3, (2,)))",
        "print('numpy.random' in sys.modules)",
    ])
    done = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False"]


class TestRegularSampler:
    def test_output_is_regular_simple_and_prefix_preserving(self):
        p = Params(9, 3, 2)
        prefix = OrderedHypergraph(9, 3, [(1, 2, 3)])
        for i in range(25):
            g = sample_regular(prefix, p, RngStream(5, (i,)))
            assert g.edges[0] == (1, 2, 3)
            assert len(g) == p.M
            assert is_simple(g.edges)
            assert all(g.degree(v) == p.d for v in range(1, 10))

    def test_empirical_uniformity_over_small_family(self):
        p = Params(6, 3, 2)
        rng = RngStream(11)
        counts = {}
        trials = 4000
        stream = Pcg64Stream.of(rng)
        for _ in range(trials):
            g = sample_regular(OrderedHypergraph(6, 3), p, stream)
            key = tuple(sorted(g.edge_set))
            counts[key] = counts.get(key, 0) + 1
        fam = focus_count(OrderedHypergraph(6, 3), p)
        assert fam == 75
        assert len(counts) == 75          # full support at this trial count
        assert tv_distance_uniform(counts, fam) < 0.1

    def test_conditional_uniformity_given_prefix(self):
        # restriction of the uniform regular law to graphs through the prefix
        p = Params(6, 3, 2)
        prefix = OrderedHypergraph(6, 3, [(1, 2, 3)])
        fam = count_extensions(prefix, p)
        stream = Pcg64Stream.of(RngStream(13))
        counts = {}
        for _ in range(3000):
            g = sample_regular(prefix, p, stream)
            key = tuple(sorted(g.edge_set))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == fam.unordered_count
        assert tv_distance_uniform(counts, fam.unordered_count) < 0.1

    def test_uncompletable_prefix_exhausts_rejection_budget(self):
        # degrees stay within d, but the residual multiset {4, 4} only forms
        # a loop, so every configuration draw fails the simplicity filter
        prefix = OrderedHypergraph(4, 2, [(1, 2), (1, 3), (2, 3)])
        with pytest.raises(RejectionBudgetError):
            sample_regular(prefix, Params(4, 2, 2), RngStream(0),
                           max_attempts=50)

    def test_inadmissible_prefix_rejected(self):
        prefix = OrderedHypergraph(4, 2, [(1, 2), (1, 3)])
        with pytest.raises(DomainError):
            sample_regular(prefix, Params(4, 2, 1), RngStream(0))


def _rebuilt(g):
    """g rebuilt through the validating public constructor."""
    return OrderedHypergraph(g.n, g.k, list(g.edges))


class TestTrustedBuilds:
    """Samplers build their graphs without re-validating edges; every
    result must equal the graph the public constructor builds from it."""

    @pytest.mark.parametrize("seed", range(20))
    def test_gnm(self, seed):
        g = sample_gnm(9, 3, 30, RngStream(seed))
        assert g == _rebuilt(g)
        assert g.edge_set == set(g.edges)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("params,base", [
        (Params(9, 3, 2), ()),
        (Params(9, 3, 2), ((1, 2, 3), (2, 4, 7))),
        # beyond half the complete degree: the complement route, once with
        # a rejection-sampled complement and once with the complete graph
        (Params(6, 3, 8), ()),
        (Params(6, 3, 10), ()),
    ])
    def test_regular(self, seed, params, base):
        prefix = OrderedHypergraph(params.n, params.k, base)
        g = sample_regular(prefix, params, RngStream(seed))
        assert g == _rebuilt(g)
        assert g.edges[:len(base)] == base
        assert len(g.edge_set) == len(g) == params.M


class TestMultiExtension:
    def test_tail_respects_residual_degrees(self):
        p = Params(6, 3, 2)
        prefix = OrderedHypergraph(6, 3, [(1, 2, 3)])
        for i in range(40):
            ext = sample_multi_extension(prefix, p, RngStream(3, (i,)))
            assert ext.base is prefix or ext.base == prefix
            deg = {v: 0 for v in range(1, 7)}
            for block in ext.tail:
                for v in block:
                    deg[v] += 1
            for v in range(1, 4):
                assert deg[v] == 1
            for v in range(4, 7):
                assert deg[v] == 2

    def test_simplicity_flag_matches_definition(self):
        p = Params(4, 2, 2)
        prefix = OrderedHypergraph(4, 2)
        seen = {True: 0, False: 0}
        for i in range(200):
            ext = sample_multi_extension(prefix, p, RngStream(9, (i,)))
            flag = ext.is_simple()
            assert flag == is_simple(list(prefix.edges) + list(ext.tail))
            seen[flag] += 1
        assert seen[True] and seen[False]   # both outcomes occur at k=2, d=2


class TestBinomialModels:
    def test_gnm_has_exactly_m_edges(self):
        g = sample_gnm(7, 3, 5, RngStream(1))
        assert len(g) == 5 and is_simple(g.edges)
        with pytest.raises(DomainError):
            sample_gnm(4, 2, 7, RngStream(0))

    def test_gnm_uniform_over_supports(self):
        stream = Pcg64Stream.of(RngStream(21))
        counts = {}
        for _ in range(3000):
            g = sample_gnm(4, 2, 2, stream)
            counts[tuple(sorted(g.edge_set))] = \
                counts.get(tuple(sorted(g.edge_set)), 0) + 1
        assert len(counts) == 15            # C(6,2) supports
        assert tv_distance_uniform(counts, 15) < 0.08

    def test_gnp_edge_count_is_binomial(self):
        stream = Pcg64Stream.of(RngStream(8))
        sizes = [len(sample_gnp(5, 2, 0.3, stream)) for _ in range(4000)]
        mean = sum(sizes) / len(sizes)
        assert abs(mean - 10 * 0.3) < 0.15   # |E| ~ Bin(C(5,2), 0.3)
        with pytest.raises(DomainError):
            sample_gnp(5, 2, 1.5, stream)

    def test_gnp_degenerate_probabilities(self):
        assert len(sample_gnp(5, 2, 0.0, RngStream(0))) == 0
        assert len(sample_gnp(5, 2, 1.0, RngStream(0))) == 10


def _residual_copies(G, params):
    degree = [0] * (params.n + 1)
    for e in G.edges:
        for v in e:
            degree[v] += 1
    return np.repeat(np.arange(1, params.n + 1, dtype=np.int64),
                     [params.d - degree[v] for v in range(1, params.n + 1)])


def _one_at_a_time(G, params, gen, limit):
    """Reference rejection loop: one `gen.permutation` per attempt, stopped
    at the first simple one.  Returns (sorted tail or None, attempts)."""
    vector = _residual_copies(G, params)
    for attempt in range(1, limit + 1):
        perm = gen.permutation(vector).reshape(-1, params.k)
        tail = [tuple(sorted(int(x) for x in row)) for row in perm]
        if is_simple(list(G.edges) + tail):
            return tail, attempt
    return None, limit


STREAM_CASES = [
    (Params(60, 3, 6), ()),
    (Params(9, 3, 2), ()),
    (Params(30, 3, 4), ()),
    # every vertex of the prefix keeps a copy, so a tail can repeat its edges
    (Params(9, 3, 2), ((1, 2, 3), (4, 5, 6))),
    # one column pair per block, and six
    (Params(12, 2, 3), ()),
    (Params(8, 4, 2), ()),
]


class TestResidualVector:
    """The residual vertex copies come straight from a degree count."""

    @pytest.mark.parametrize("params, prefix", [
        (Params(9, 3, 2), ()),
        (Params(9, 3, 2), ((1, 2, 3), (4, 5, 6))),
        (Params(9, 3, 2), ((1, 2, 3), (1, 4, 5), (2, 6, 9))),
        (Params(6, 3, 2), ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6))),
        (Params(12, 2, 3), ((1, 12), (3, 7), (1, 2))),
    ])
    def test_equals_an_independent_copy_count(self, params, prefix):
        G = OrderedHypergraph(params.n, params.k, prefix)
        got = _residual_vector(G, params)
        want = _residual_copies(G, params)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()

    @pytest.mark.parametrize("G, params, error", [
        (OrderedHypergraph(6, 3, [(1, 2, 3), (1, 4, 5), (1, 2, 6)]),
         Params(6, 3, 2), InadmissiblePrefixError),
        (OrderedHypergraph(6, 3), Params(6, 2, 2), DomainError),
        (OrderedHypergraph(4, 2, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]),
         Params(4, 2, 2), DomainError),
    ])
    def test_rejects_what_has_no_residual_multiset(self, G, params, error):
        with pytest.raises(error):
            _residual_vector(G, params)


class TestRejectionStream:
    """The batched kernel consumes randomness exactly as successive
    `gen.permutation` calls would, one attempt at a time."""

    def test_permuted_rows_are_successive_permutations(self):
        vector = np.repeat(np.arange(1, 13, dtype=np.int64), 3)
        for seed in range(5):
            for rows in (1, 2, 7, 40):
                g1 = np.random.default_rng(seed)
                g2 = np.random.default_rng(seed)
                tile = np.empty((rows, len(vector)), dtype=np.int64)
                tile[...] = vector
                g1.permuted(tile, axis=1, out=tile)
                expected = [g2.permutation(vector) for _ in range(rows)]
                assert np.array_equal(tile, np.array(expected))
                assert g1.bit_generator.state == g2.bit_generator.state

    @pytest.mark.parametrize("params,prefix", STREAM_CASES)
    def test_sample_is_first_simple_permutation(self, params, prefix):
        G = OrderedHypergraph(params.n, params.k, prefix)
        for seed in range(3):
            s1 = Pcg64Stream.of(RngStream(seed))
            g2 = np.random.default_rng(seed)
            for _ in range(3):
                h = sample_regular(G, params, s1)
                tail, _ = _one_at_a_time(G, params, g2, 10**6)
                assert h.edges == G.edges + tuple(tail)
                assert s1.state == g2.bit_generator.state

    # (4,2,2) rows are 8 copies wide, so 5000 trials pass the batch cap
    @pytest.mark.parametrize("params,prefix,trials", [
        case + (300,) for case in STREAM_CASES] + [(Params(4, 2, 2), (), 5000)])
    def test_simplicity_count_matches_permutation_loop(self, params, prefix,
                                                       trials):
        G = OrderedHypergraph(params.n, params.k, prefix)
        vector = _residual_copies(G, params)
        s1 = Pcg64Stream.of(RngStream(17))
        g2 = np.random.default_rng(17)
        est = simplicity_probability(G, params, trials, s1, exact="never")
        expected = 0
        for _ in range(trials):
            perm = g2.permutation(vector).reshape(-1, params.k)
            expected += is_simple(list(G.edges) + [tuple(r) for r in perm])
        assert est.successes == expected
        assert s1.state == g2.bit_generator.state

    @pytest.mark.parametrize("params,prefix", [
        # residual copies {4, 4}: every attempt is a loop
        (Params(4, 2, 2), ((1, 2), (1, 3), (2, 3))),
        # seed 0 draws no simple attempt among its first 50 here
        (Params(60, 3, 6), ()),
    ])
    def test_exhaustion_leaves_state_after_max_attempts(self, params, prefix):
        G = OrderedHypergraph(params.n, params.k, prefix)
        s1 = Pcg64Stream.of(RngStream(0))
        g2 = np.random.default_rng(0)
        tail, _ = _one_at_a_time(G, params, g2, 50)
        assert tail is None
        with pytest.raises(RejectionBudgetError):
            sample_regular(G, params, s1, max_attempts=50)
        assert s1.state == g2.bit_generator.state


class _BitsSpy:
    """A bit generator's `state`, with every read and write logged."""

    def __init__(self, bits, log):
        self._bits, self._log = bits, log

    @property
    def state(self):
        self._log.append("get")
        return self._bits.state

    @state.setter
    def state(self, value):
        self._log.append("set")
        self._bits.state = value


class _GeneratorSpy:
    """A numpy Generator that draws as the one it wraps and logs its state
    reads and writes, and the start state and row count of each
    `permuted` call."""

    def __init__(self, gen):
        self._gen = gen
        self.log = []
        self.bit_generator = _BitsSpy(gen.bit_generator, self.log)

    def permuted(self, x, axis=None, out=None):
        state = self._gen.bit_generator.state
        start = (state["state"]["state"], state["has_uint32"],
                 state["uinteger"])
        self.log.append(("permuted", start, len(x)))
        return self._gen.permuted(x, axis=axis, out=out)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class _Spied(RngStream):
    """An RngStream whose `generator()` is a `_GeneratorSpy`, kept as spy."""

    def generator(self):
        object.__setattr__(self, "spy", _GeneratorSpy(super().generator()))
        return self.spy


class TestDeferredReplay:
    """The accepted attempt's batch is not redrawn when it is found: the
    stream records a replay and redraws those rows only when it is read
    again."""

    PARAMS = Params(60, 3, 6)

    def _sample(self, seed):
        """One (60,3,6) sample on the stream of `_Spied(seed)`: the stream,
        its Generator's `permuted` calls (start state, rows), the attempts
        of one `permutation` per attempt and the Generator that loop
        leaves."""
        rng = _Spied(seed)
        stream = Pcg64Stream.of(rng)
        G = OrderedHypergraph(60, 3)
        sample_regular(G, self.PARAMS, stream)
        calls = [entry[1:] for entry in rng.spy.log if entry[0] == "permuted"]
        reference = RngStream(seed).generator()
        attempts = _one_at_a_time(G, self.PARAMS, reference, 10**6)[1]
        return stream, calls, attempts, reference

    def test_a_dropped_stream_permutes_no_row_twice(self):
        replays = 0
        for seed in range(12):
            _, calls, attempts, _ = self._sample(seed)
            starts = [start for start, _ in calls]
            rows = [count for _, count in calls]
            # each batch starts where the last one ended, and the accepted
            # attempt is in the last: rows = attempts + that batch's tail
            assert len(set(starts)) == len(starts)
            assert sum(rows[:-1]) < attempts <= sum(rows)
            replays += attempts < sum(rows)
        # the accepted row is mostly not its batch's last, so most
        # samples leave a replay pending
        assert replays >= 8

    @pytest.mark.parametrize("read", ["integers", "next_uint64", "handoff",
                                      "state"])
    def test_the_next_read_continues_after_the_accepted_attempt(self, read):
        replays = 0
        for seed in range(6):
            stream, calls, attempts, reference = self._sample(seed)
            replays += attempts < sum(count for _, count in calls)
            if read == "integers":
                assert stream.integers(1 << 40) == int(
                    reference.integers(1 << 40))
            elif read == "next_uint64":
                assert stream.next_uint64() == int(
                    reference.bit_generator.random_raw())
            elif read == "handoff":
                with stream.handoff() as gen:
                    assert np.array_equal(gen.permutation(9),
                                          reference.permutation(9))
            assert stream.state == reference.bit_generator.state
        assert replays >= 3

    def test_handoffs_in_turn_pass_the_state_on_unconverted(self):
        # the lent Generator keeps the live state between handoffs; only a
        # bounded draw takes it back
        rng = _Spied(4)
        stream = Pcg64Stream.of(rng)
        reference = RngStream(4).generator()
        for _ in range(3):
            with stream.handoff() as gen:
                gen.random()
            reference.random()
        assert rng.spy.log == ["set"]
        assert stream.integers(1000) == int(reference.integers(1000))
        assert rng.spy.log == ["set", "get"]
        with stream.handoff() as gen:
            assert gen.random() == reference.random()
        assert rng.spy.log == ["set", "get", "set"]
        assert stream.state == reference.bit_generator.state


class TestRejectionCounters:
    @pytest.mark.parametrize("mode", ["requre", "require"])
    def test_unknown_exact_mode_is_rejected(self, mode):
        with pytest.raises(DomainError, match="exact must be one of"):
            simplicity_probability(OrderedHypergraph(6, 3), Params(6, 3, 2),
                                   5, RngStream(0), exact=mode)

    def test_attempts_per_sample_match_exact_simplicity(self):
        # attempts per accepted sample are geometric with mean 1/P(simple)
        params = Params(9, 3, 2)
        G = OrderedHypergraph(9, 3)
        p = exact_simplicity_from_count(G, params)
        assert abs(float(p) - 0.328) < 0.001
        # each call starts where the last one's deferred replay leaves the
        # stream, which is where one-at-a-time permutations leave numpy
        stream = Pcg64Stream.of(RngStream(2024))
        reference = RngStream(2024).generator()
        samples = 2000
        total = 0
        for _ in range(samples):
            blocks, successes, attempts = _configuration_rejection(
                G, params, stream, 10**6, first=True)
            assert blocks is not None and successes == 1
            assert attempts == _one_at_a_time(G, params, reference, 10**6)[1]
            total += attempts
        assert stream.state == reference.bit_generator.state
        p = float(p)
        z = (total / samples - 1 / p) / math.sqrt((1 - p) / p**2 / samples)
        assert abs(z) < 4

    def test_exact_count_does_not_list_the_family(self, monkeypatch):
        # the identity route needs only the number of completions: under a
        # budget the count outruns, it refuses without listing or walking
        monkeypatch.setenv("HYPERCOUPLE_NODE_BUDGET", "50000")

        def neither(*args):
            raise AssertionError("the family was listed or walked")

        monkeypatch.setattr(oracle, "_sweep_completions", neither)
        monkeypatch.setattr(oracle, "_FocusBacktracker", neither)
        est = simplicity_probability(OrderedHypergraph(15, 3),
                                     Params(15, 3, 2), 5, RngStream(0))
        assert est.exact is None

    def test_exact_value_comes_from_the_completion_count(self, monkeypatch):
        built = []
        real = oracle._FocusBacktracker

        def spy(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(oracle, "_FocusBacktracker", spy)
        start = time.perf_counter()
        p = exact_simplicity_from_count(OrderedHypergraph(9, 3),
                                        Params(9, 3, 2))
        assert time.perf_counter() - start < 0.1
        assert p == Fraction(27936, 85085) and not built
        est = simplicity_probability(OrderedHypergraph(9, 3), Params(9, 3, 2),
                                     5, RngStream(0))
        assert est.exact == p and not built

    def test_past_int64_codes_no_exact_value_at_once(self):
        # (d+1)^n = 7^60 codes: the count refuses before it builds a state
        start = time.perf_counter()
        est = simplicity_probability(OrderedHypergraph(60, 3),
                                     Params(60, 3, 6), 10, RngStream(0))
        assert time.perf_counter() - start < 1
        assert est.exact is None and est.trials == 10


def _entry_points():
    """(name, call(rng), key of the result) for every drawing entry point,
    at desk-scale arguments."""
    from hypercouple import (CouplingConfig, choose_epsilon, expose_process,
                             mutual_simplicity_probe, residual_report,
                             run_coupling, run_coupling_gnp,
                             sample_mutual_pair)
    from hypercouple.coupling import _estimate_law

    p = Params(6, 3, 2)
    empty = OrderedHypergraph(6, 3)
    base = OrderedHypergraph(6, 3, [(1, 2, 3)])
    e, f = (1, 4, 5), (4, 5, 6)
    config = CouplingConfig(p, 0.75, choose_epsilon(p, 0.75))
    return [
        ("sample_gnm", lambda rng: sample_gnm(6, 3, 5, rng),
         lambda g: g.edges),
        ("sample_gnp", lambda rng: sample_gnp(6, 3, 0.3, rng),
         lambda g: sorted(g.edge_set)),
        ("sample_regular", lambda rng: sample_regular(empty, p, rng),
         lambda g: g.edges),
        # d = 6 exceeds half the complete degree 10: the complement route
        ("sample_regular_complement",
         lambda rng: sample_regular(empty, Params(6, 3, 6), rng),
         lambda g: g.edges),
        ("sample_multi_extension",
         lambda rng: sample_multi_extension(base, p, rng), lambda x: x.tail),
        ("simplicity_probability",
         lambda rng: simplicity_probability(empty, p, 40, rng,
                                            exact="never"),
         lambda est: est.successes),
        ("expose_process", lambda rng: expose_process(p, rng),
         lambda tr: tr.graph.edges),
        ("residual_report", lambda rng: residual_report(p, 3, rng),
         lambda rep: rep.residual_sum.tolist()),
        ("sample_mutual_pair",
         lambda rng: sample_mutual_pair(base, e, f, p, rng), lambda s: s),
        ("mutual_simplicity_probe",
         lambda rng: mutual_simplicity_probe(base, e, f, p, 5, rng),
         lambda rep: rep),
        ("run_coupling", lambda rng: run_coupling(config, rng),
         lambda tr: tr.steps),
        ("run_coupling_gnp",
         lambda rng: run_coupling_gnp(config, rng, p=0.1),
         lambda tr: (tr.base.steps, tr.edge_count, tr.embedded)),
        ("_estimate_law", lambda rng: _estimate_law(empty, p, 10, rng),
         lambda law: law.weights),
    ]


ENTRY_POINTS = [name for name, _, _ in _entry_points()]


class TestEveryEntryPointContinuesAStream:
    """Every drawing entry point resolves its randomness through
    `Pcg64Stream.of`: an RngStream starts a stream, a Pcg64Stream is
    continued, and a numpy Generator is refused with one message."""

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_two_calls_on_one_stream_continue_it(self, name):
        [(_, call, key)] = [x for x in _entry_points() if x[0] == name]
        stream = Pcg64Stream.of(RngStream(31, (2,)))
        start = stream.state
        first = key(call(stream))
        assert first == key(call(RngStream(31, (2,))))
        middle = stream.state
        assert middle != start
        second = key(call(stream))
        replay = Pcg64Stream.of(RngStream(31, (2,)))
        replay.state = middle
        assert key(call(replay)) == second
        assert replay.state == stream.state

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_a_numpy_generator_is_refused(self, name):
        [(_, call, _)] = [x for x in _entry_points() if x[0] == name]
        with pytest.raises(DomainError) as refused:
            Pcg64Stream.of(np.random.default_rng(0))
        with pytest.raises(DomainError) as err:
            call(np.random.default_rng(0))
        assert str(err.value) == str(refused.value)
        assert str(err.value).startswith(
            "expected RngStream or Pcg64Stream, got")
