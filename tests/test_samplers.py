"""Sampler correctness: stream discipline, validity, and uniformity."""

import math
import pickle
import tracemalloc

import numpy as np
import pytest

from hypercouple import (
    DomainError,
    InadmissiblePrefixError,
    OrderedHypergraph,
    Params,
    RejectionBudgetError,
    RngStream,
    as_generator,
    count_extensions,
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

    def test_as_generator_accepts_both(self):
        assert isinstance(as_generator(RngStream(0)), np.random.Generator)
        g = np.random.default_rng(0)
        assert as_generator(g) is g
        with pytest.raises(DomainError):
            as_generator(31337)


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
        gen = rng.generator()
        for _ in range(trials):
            g = sample_regular(OrderedHypergraph(6, 3), p, gen)
            key = tuple(sorted(g.edge_set))
            counts[key] = counts.get(key, 0) + 1
        fam = count_extensions(OrderedHypergraph(6, 3), p).unordered_count
        assert fam == 75
        assert len(counts) == 75          # full support at this trial count
        assert tv_distance_uniform(counts, fam) < 0.1

    def test_conditional_uniformity_given_prefix(self):
        # restriction of the uniform regular law to graphs through the prefix
        p = Params(6, 3, 2)
        prefix = OrderedHypergraph(6, 3, [(1, 2, 3)])
        fam = count_extensions(prefix, p, list_completions=True)
        gen = RngStream(13).generator()
        counts = {}
        for _ in range(3000):
            g = sample_regular(prefix, p, gen)
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
        gen = RngStream(21).generator()
        counts = {}
        for _ in range(3000):
            g = sample_gnm(4, 2, 2, gen)
            counts[tuple(sorted(g.edge_set))] = \
                counts.get(tuple(sorted(g.edge_set)), 0) + 1
        assert len(counts) == 15            # C(6,2) supports
        assert tv_distance_uniform(counts, 15) < 0.08

    def test_gnp_edge_count_is_binomial(self):
        gen = RngStream(8).generator()
        sizes = [len(sample_gnp(5, 2, 0.3, gen)) for _ in range(4000)]
        mean = sum(sizes) / len(sizes)
        assert abs(mean - 10 * 0.3) < 0.15   # |E| ~ Bin(C(5,2), 0.3)
        with pytest.raises(DomainError):
            sample_gnp(5, 2, 1.5, gen)

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
            g1 = np.random.default_rng(seed)
            g2 = np.random.default_rng(seed)
            for _ in range(3):
                h = sample_regular(G, params, g1)
                tail, _ = _one_at_a_time(G, params, g2, 10**6)
                assert h.edges == G.edges + tuple(tail)
                assert g1.bit_generator.state == g2.bit_generator.state

    # (4,2,2) rows are 8 copies wide, so 5000 trials pass the batch cap
    @pytest.mark.parametrize("params,prefix,trials", [
        case + (300,) for case in STREAM_CASES] + [(Params(4, 2, 2), (), 5000)])
    def test_simplicity_count_matches_permutation_loop(self, params, prefix,
                                                       trials):
        G = OrderedHypergraph(params.n, params.k, prefix)
        vector = _residual_copies(G, params)
        g1 = np.random.default_rng(17)
        g2 = np.random.default_rng(17)
        est = simplicity_probability(G, params, trials, g1, exact="never")
        expected = 0
        for _ in range(trials):
            perm = g2.permutation(vector).reshape(-1, params.k)
            expected += is_simple(list(G.edges) + [tuple(r) for r in perm])
        assert est.successes == expected
        assert g1.bit_generator.state == g2.bit_generator.state

    @pytest.mark.parametrize("params,prefix", [
        # residual copies {4, 4}: every attempt is a loop
        (Params(4, 2, 2), ((1, 2), (1, 3), (2, 3))),
        # seed 0 draws no simple attempt among its first 50 here
        (Params(60, 3, 6), ()),
    ])
    def test_exhaustion_leaves_state_after_max_attempts(self, params, prefix):
        G = OrderedHypergraph(params.n, params.k, prefix)
        g1 = np.random.default_rng(0)
        g2 = np.random.default_rng(0)
        tail, _ = _one_at_a_time(G, params, g2, 50)
        assert tail is None
        with pytest.raises(RejectionBudgetError):
            sample_regular(G, params, g1, max_attempts=50)
        assert g1.bit_generator.state == g2.bit_generator.state


class TestRejectionCounters:
    def test_unknown_exact_mode_is_rejected(self):
        with pytest.raises(DomainError, match="exact must be one of"):
            simplicity_probability(OrderedHypergraph(6, 3), Params(6, 3, 2),
                                   5, RngStream(0), exact="requre")

    def test_attempts_per_sample_match_exact_simplicity(self):
        # attempts per accepted sample are geometric with mean 1/P(simple)
        params = Params(9, 3, 2)
        G = OrderedHypergraph(9, 3)
        p = exact_simplicity_from_count(G, params)
        assert abs(float(p) - 0.328) < 0.001
        gen = RngStream(2024).generator()
        reference = RngStream(2024).generator()
        samples = 2000
        total = 0
        for _ in range(samples):
            blocks, successes, attempts = _configuration_rejection(
                G, params, gen, 10**6, first=True)
            assert blocks is not None and successes == 1
            assert attempts == _one_at_a_time(G, params, reference, 10**6)[1]
            total += attempts
        p = float(p)
        z = (total / samples - 1 / p) / math.sqrt((1 - p) / p**2 / samples)
        assert abs(z) < 4

    def test_exact_count_does_not_list_the_family(self):
        # the identity route needs only the number of completions; a
        # listing of the family would hold its rows until the budget ran out
        G = OrderedHypergraph(15, 3)
        params = Params(15, 3, 2)
        # a first call pays the lazy imports behind the generator
        simplicity_probability(G, params, 5, RngStream(0), exact_budget=1000)
        tracemalloc.start()
        try:
            est = simplicity_probability(G, params, 5, RngStream(0),
                                         exact_budget=50_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.exact is None
        # a listing of the 50,000-node walk peaks near 0.74 MB
        assert peak < 0.25 * 2**20
