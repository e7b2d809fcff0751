"""Container, parameter, edge pool and serialization invariants."""

import ast
import inspect
import math
import re
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercouple import (
    DomainError,
    Hypergraph,
    InadmissiblePrefixError,
    OrderedHypergraph,
    Params,
    codegree_rel,
    complement_edges,
    format_edge_list,
    is_simple,
    make_edge,
    parse_edge_list,
    residual_degrees,
)
from hypercouple.core import edge_pool

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hypercouple"


@st.composite
def graph_instances(draw):
    n = draw(st.integers(2, 8))
    k = draw(st.integers(2, min(n, 4)))
    all_e = list(__import__("itertools").combinations(range(1, n + 1), k))
    edges = draw(st.lists(st.sampled_from(all_e), unique=True, max_size=len(all_e)))
    return n, k, edges


class TestParams:
    def test_edge_count_and_derived(self):
        p = Params(6, 3, 2)
        assert (p.M, p.max_degree, p.complete_count) == (4, 10, 20)

    @pytest.mark.parametrize("n,k,d", [(5, 3, 2), (4, 5, 1), (6, 3, 0), (6, 1, 2)])
    def test_rejects_bad_shapes(self, n, k, d):
        with pytest.raises(DomainError):
            Params(n, k, d)

    @given(st.integers(2, 12), st.integers(2, 5), st.integers(1, 6))
    def test_divisibility_is_the_only_size_gate(self, n, k, d):
        if n < k:
            return
        if (n * d) % k:
            with pytest.raises(DomainError):
                Params(n, k, d)
        else:
            assert Params(n, k, d).M * k == n * d


class TestEdges:
    def test_make_edge_sorts(self):
        assert make_edge([3, 1, 2]) == (1, 2, 3)

    @pytest.mark.parametrize("bad", [[1, 1, 2], [0, 1, 2], [1, 2, 9]])
    def test_make_edge_validation(self, bad):
        with pytest.raises(DomainError):
            make_edge(bad, n=8, k=3)

    def test_is_simple(self):
        assert is_simple([(1, 2), (2, 3)])
        assert not is_simple([(1, 2), (2, 1)])
        assert not is_simple([(1, 1)])


def definitions_holding(source: str, accepts) -> list[str]:
    """The definitions (as dotted names) holding a node that `accepts`,
    once per such node."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            if accepts(child):
                found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def pool_enumerations(source: str) -> list[str]:
    """The definitions holding a call `combinations(range(1, ...), ...)`:
    an enumeration of an edge pool."""
    return definitions_holding(source, lambda node: (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "combinations"
        and node.args and isinstance(node.args[0], ast.Call)
        and getattr(node.args[0].func, "id", None) == "range"
        and node.args[0].args
        and isinstance(node.args[0].args[0], ast.Constant)
        and node.args[0].args[0].value == 1))


# what a check of a switching request says when it refuses one
REQUEST_REFUSAL = re.compile(
    r"unknown (switching|statistic)|needs (--)?(edge|pair)")
SWITCHING_KINDS = {"remove_edge", "pair_degree", "codegree"}


def switching_request_checks(source: str) -> list[str]:
    """The definitions holding a raise of a switching-request refusal (an
    unknown kind, a missing edge or pair) or a test `kind in KINDS` (or in
    a literal of switching kinds): a second check of a switching request."""
    def refuses(node):
        return isinstance(node, ast.Raise) and node.exc is not None and any(
            isinstance(x, ast.Constant) and isinstance(x.value, str)
            and REQUEST_REFUSAL.search(x.value) for x in ast.walk(node.exc))

    def tests_kind(node):
        if not (isinstance(node, ast.Compare)
                and getattr(node.left, "id", None) == "kind"
                and isinstance(node.ops[0], (ast.In, ast.NotIn))):
            return False
        kinds = node.comparators[0]
        if isinstance(kinds, (ast.Tuple, ast.List, ast.Set)):
            return {getattr(x, "value", None)
                    for x in kinds.elts} <= SWITCHING_KINDS
        return getattr(kinds, "id", getattr(kinds, "attr", None)) == "KINDS"

    return definitions_holding(
        source, lambda node: refuses(node) or tests_kind(node))


MOVE_ITERATORS = ("iter_forward_moves", "iter_backward_moves")


def kind_branches(source: str) -> list[str]:
    """The definitions inside a move iterator holding a comparison of `kind`
    with a literal other than "remove_edge" (whose presence rule is the one
    kind-specific step): a second loop for one kind."""
    def branches(node):
        return (isinstance(node, ast.Compare)
                and "kind" in {getattr(x, "id", None)
                               for x in [node.left, *node.comparators]}
                and any(isinstance(x, ast.Constant)
                        and x.value != "remove_edge"
                        for x in ast.walk(node)))

    return [where for where in definitions_holding(source, branches)
            if where.split(".")[0] in MOVE_ITERATORS]


def near_uniformity_verdicts(source: str) -> list[str]:
    """The definitions holding a call `<law>.near_uniform(...)`: a verdict
    of a coupled step."""
    return definitions_holding(source, lambda node: (
        isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "near_uniform"))


# names of the deleted ways round `samplers.Pcg64Stream.of`
BYPASS_NAMES = {"as_generator", "write_back"}


def randomness_bypasses(source: str) -> list[str]:
    """The definitions holding a call `<x>.generator()`, an isinstance check
    against a `Generator`, or a use of a name in BYPASS_NAMES, then the
    definitions named in BYPASS_NAMES: each takes a numpy Generator other
    than the one `Pcg64Stream.handoff` lends."""
    def named(node):
        return getattr(node, "id", getattr(node, "attr", getattr(
            node, "name", None)))

    def bypasses(node):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "generator":
                return True
            if named(node.func) == "isinstance" and len(node.args) == 2:
                return any(named(x) == "Generator"
                           for x in ast.walk(node.args[1]))
        return isinstance(node, (ast.Name, ast.Attribute, ast.alias)) \
            and named(node) in BYPASS_NAMES

    defined = [node.name for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and node.name in BYPASS_NAMES]
    return definitions_holding(source, bypasses) + defined


class TestEdgePool:
    """`core.edge_pool` is the one numbering of the possible edges: every
    module reads pool columns through it."""

    @pytest.mark.parametrize("n,k", [(6, 3), (9, 3), (8, 2), (5, 5),
                                     (64, 2), (70, 3)])
    def test_columns_are_the_lexicographic_order(self, n, k):
        pool = edge_pool(n, k)
        assert pool.edges == tuple(combinations(range(1, n + 1), k))
        size = len(pool.edges)
        assert pool.vertices.tolist() == [list(e) for e in pool.edges]
        assert np.array_equal(pool.rank(pool.vertices), np.arange(size))
        assert [pool.column(e) for e in pool.edges] == list(range(size))
        assert not pool.vertices.flags.writeable

    @pytest.mark.parametrize("n,k", [(9, 3), (63, 2), (64, 2), (70, 3)])
    def test_masks_hold_the_vertex_sets(self, n, k):
        # vertex x is bit x & 63 of word x >> 6: two words from n = 64 on
        pool = edge_pool(n, k)
        words = pool.masks.shape[1]
        assert pool.masks.shape == (len(pool.edges), (n + 64) // 64)
        bits = np.unpackbits(pool.masks.astype("<u8").view(np.uint8),
                             axis=1, bitorder="little").view(bool)
        expected = np.zeros((len(pool.edges), 64 * words), dtype=bool)
        expected[np.arange(len(pool.edges))[:, None], pool.vertices] = True
        assert np.array_equal(bits, expected)
        assert not pool.masks.flags.writeable

    def test_pool_is_cached_per_size_within_a_bound(self):
        assert edge_pool(7, 3) is edge_pool(7, 3)
        bound = edge_pool.cache_info().maxsize
        assert bound is not None and bound <= 4
        for n in range(4, 4 + bound + 2):
            edge_pool(n, 2)
        assert edge_pool.cache_info().currsize <= bound

    def test_only_the_pool_enumerates_the_pool(self):
        # a second enumeration is a second numbering that may drift apart
        found = [f"{path.name}: {where}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for where in pool_enumerations(path.read_text())]
        assert found == ["core.py: EdgePool.__init__"]

    @pytest.mark.parametrize("n,k", [(4, 1), (3, 0), (2, 3), (0, 2)])
    def test_pool_needs_n_at_least_k_at_least_2(self, n, k):
        with pytest.raises(DomainError, match="need n >= k >= 2"):
            edge_pool(n, k)

    def test_finder_sees_every_spelling_of_a_pool_enumeration(self):
        source = ("class A:\n"
                  "    def f(self, n, k):\n"
                  "        return itertools.combinations(range(1, n+1), k)\n"
                  "def g(G):\n"
                  "    return [e for e in combinations(range(1, G.n + 1), 2)]\n"
                  "def h(s):\n"
                  "    return combinations(range(s), 2), combinations(s, 3)\n")
        assert pool_enumerations(source) == ["A.f", "g"]


class TestOneSwitchingRequest:
    """`oracle.switching_target` is the one check of a switching request:
    no other definition refuses a kind, an edge or a pair."""

    def test_only_the_resolver_checks_a_switching_request(self):
        found = [f"{path.name}: {where}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for where in switching_request_checks(path.read_text())]
        assert set(found) == {"oracle.py: switching_target"}

    def test_finder_sees_the_earlier_copies(self):
        # each copy the resolver replaced, abridged, and three look-alikes
        # that check something else
        source = (
            "def iter_forward_moves(H, G, kind, edge=None, pair=None):\n"
            "    if kind not in KINDS:\n"
            "        raise DomainError(f'unknown switching kind {kind!r}')\n"
            "    if pair is None:\n"
            "        raise DomainError(f'{kind} switching needs pair=')\n"
            "def _counts(H, G, kind, edge, pair, kernel):\n"
            "    if edge is None:\n"
            "        raise DomainError('remove_edge switching needs edge=')\n"
            "def switching_class_sizes(G, u, v, kind, params):\n"
            "    if kind not in ('pair_degree', 'codegree'):\n"
            "        raise DomainError(\n"
            "            f'unknown switching statistic kind {kind!r}')\n"
            "def _run_switching_verify(cfg):\n"
            "    if not cfg.options.get('edge'):\n"
            "        raise DomainError('remove_edge needs --edge')\n"
            "class ExperimentConfig:\n"
            "    def check(self):\n"
            "        if self.kind not in KINDS:\n"
            "            raise DomainError('sampling route needs trials')\n"
            "def pair_degree(u, v):\n"
            "    raise DomainError('pair degree needs two distinct vertices')\n")
        assert switching_request_checks(source) == [
            "iter_forward_moves", "iter_forward_moves", "iter_forward_moves",
            "_counts", "switching_class_sizes", "switching_class_sizes",
            "_run_switching_verify"]


class TestOneRowOneLoop:
    """Each move iterator lists its moves from one loop over the (row 1,
    anchor) pairs of `_iter_row_ones`, for every kind: the only kind it
    names is remove_edge, for that kind's presence rule."""

    def test_iterators_branch_on_no_other_kind(self):
        source = (PACKAGE / "switchings.py").read_text()
        defined = definitions_holding(source, lambda node: isinstance(
            node, ast.Name) and node.id == "kind")
        assert set(MOVE_ITERATORS) <= set(defined)
        assert kind_branches(source) == []

    def test_finder_sees_the_pair_degree_reconstruction(self):
        # the branch the shared walk replaced, abridged, and two look-alikes
        # outside the iterators
        source = (
            "def iter_backward_moves(Hp, G, kind, *, edge=None, pair=None):\n"
            "    if kind == 'remove_edge':\n"
            "        check_edge_presence(target, False, False, [False])\n"
            "    def row_ok(row):\n"
            "        return kind != 'codegree' or row not in hp_set\n"
            "    if kind == \"pair_degree\":\n"
            "        u, v = target\n"
            "        return\n"
            "    for row1, anchor in _iter_row_ones(kind, target, n, k):\n"
            "        yield row1\n"
            "def _iter_row_ones(kind, target, n, k):\n"
            "    if kind == 'pair_degree':\n"
            "        return\n"
            "def _leads(n, k, kind, target):\n"
            "    if kind in ('pair_degree', 'codegree'):\n"
            "        return\n")
        assert kind_branches(source) == ["iter_backward_moves.row_ok",
                                         "iter_backward_moves"]


class TestContainers:
    @given(graph_instances())
    def test_handshake(self, inst):
        n, k, edges = inst
        g = Hypergraph(n, k, edges)
        assert sum(g.degree(v) for v in range(1, n + 1)) == k * len(g)
        copies = Counter(v for e in g.edge_set for v in e)
        assert all(copies[v] == g.degree(v) for v in range(1, n + 1))

    @given(graph_instances())
    def test_complement_partition(self, inst):
        n, k, edges = inst
        g = Hypergraph(n, k, edges)
        comp = list(complement_edges(g))
        assert len(comp) + len(g) == math.comb(n, k)
        assert not set(comp) & g.edge_set
        assert comp == sorted(comp)

    @given(graph_instances())
    def test_ordered_prefix_and_roundtrip(self, inst):
        n, k, edges = inst
        g = OrderedHypergraph(n, k, edges)
        for t in range(len(g) + 1):
            assert g.prefix(t).edges == g.edges[:t]
        assert g.as_hypergraph().edge_set == g.edge_set

    def test_ordered_rejects_duplicates(self):
        g = OrderedHypergraph(5, 2, [(1, 2)])
        with pytest.raises(DomainError):
            g.append((2, 1))

    def test_public_constructors_canonicalise(self):
        edges = [(3, 1, 2), [5, 4, 1], (2, 4, 3)]
        canonical = [(1, 2, 3), (1, 4, 5), (2, 3, 4)]
        assert OrderedHypergraph(5, 3, edges).edges == tuple(canonical)
        assert Hypergraph(5, 3, edges).edge_set == set(canonical)
        g = OrderedHypergraph(5, 3)
        g.append([5, 2, 1])
        assert g.edges == ((1, 2, 5),)

    @pytest.mark.parametrize("edges", [
        [(1, 1, 2)],              # repeated vertex
        [(1, 2)],                 # wrong size
        [(1, 2, 3, 4)],           # wrong size
        [(0, 1, 2)],              # below the vertex range
        [(1, 2, 6)],              # above the vertex range
        [(1, 2, 3), (3, 2, 1)],   # duplicate edge
    ])
    def test_public_constructors_still_validate(self, edges):
        with pytest.raises(DomainError):
            OrderedHypergraph(5, 3, edges)
        g = OrderedHypergraph(5, 3, edges[:-1])
        with pytest.raises(DomainError):
            g.append(edges[-1])
        if len(edges) == 1:  # a set silently absorbs a duplicate edge
            with pytest.raises(DomainError):
                Hypergraph(5, 3, edges)
            with pytest.raises(DomainError):
                Hypergraph(5, 3).add_edge(edges[0])

    @given(graph_instances())
    def test_trusted_build_equals_the_public_one(self, inst):
        n, k, edges = inst
        g = OrderedHypergraph._from_canonical(n, k, edges)
        assert g == OrderedHypergraph(n, k, edges)
        assert g.edge_set == set(edges)

    def test_trusted_build_checks_distinctness(self):
        with pytest.raises(DomainError):
            OrderedHypergraph._from_canonical(5, 3, [(1, 2, 3), (1, 2, 3)])

    def test_pair_degree(self):
        g = Hypergraph(5, 3, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])
        assert g.pair_degree(1, 2) == 2
        assert g.pair_degree(2, 5) == 0


class TestCodegree:
    def test_relative_codegree_by_hand(self):
        # W+{u} in H, W+{v} in H minus G
        H = Hypergraph(5, 2, [(1, 3), (2, 3), (1, 4), (2, 4)])
        G = Hypergraph(5, 2, [(2, 4)])
        # u=1: W={3}: (2,3) not in G -> counts; W={4}: (2,4) in G -> no
        assert codegree_rel(H, G, 1, 2) == 1
        assert codegree_rel(H, G, 2, 1) == 2

    def test_requires_subgraph(self):
        H = Hypergraph(4, 2, [(1, 2)])
        G = Hypergraph(4, 2, [(3, 4)])
        with pytest.raises(DomainError):
            codegree_rel(H, G, 1, 2)


class TestResidualDegrees:
    @pytest.mark.parametrize("graph", [OrderedHypergraph, Hypergraph])
    @pytest.mark.parametrize("params, prefix", [
        (Params(6, 3, 2), ()),
        (Params(6, 3, 2), ((1, 2, 3),)),
        (Params(9, 3, 2), ((1, 2, 3), (1, 4, 5), (2, 6, 9))),
        (Params(12, 2, 3), ((1, 12), (3, 7), (1, 2))),
    ])
    def test_d_minus_degree_by_vertex(self, graph, params, prefix):
        g = graph(params.n, params.k, prefix)
        r = residual_degrees(g, params)
        assert r.dtype == np.int64 and r.shape == (params.n + 1,)
        assert r[0] == 0
        assert r.tolist()[1:] == [params.d - g.degree(v)
                                  for v in range(1, params.n + 1)]
        assert r.sum() == params.k * (params.M - len(prefix))

    def test_complete_prefix_leaves_nothing(self):
        p = Params(6, 3, 2)
        g = OrderedHypergraph(6, 3, [(1, 2, 3), (1, 4, 5), (2, 4, 6),
                                     (3, 5, 6)])
        assert not residual_degrees(g, p).any()

    def test_overfull_prefix_names_the_first_overfull_vertex(self):
        p = Params(6, 3, 2)
        g = OrderedHypergraph(6, 3, [(1, 3, 5), (2, 3, 5), (3, 4, 5)])
        with pytest.raises(InadmissiblePrefixError,
                           match=r"^vertex 3 has degree 3 > d=2$"):
            residual_degrees(g, p)

    @pytest.mark.parametrize("g, p, message", [
        (OrderedHypergraph(6, 3), Params(6, 2, 2),
         "graph and params disagree on (n, k)"),
        (OrderedHypergraph(6, 3), Params(9, 3, 2),
         "graph and params disagree on (n, k)"),
        (OrderedHypergraph(4, 2, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]),
         Params(4, 2, 2), "prefix has 5 edges, more than M=4"),
    ])
    def test_shape_errors(self, g, p, message):
        with pytest.raises(DomainError) as err:
            residual_degrees(g, p)
        assert type(err.value) is DomainError
        assert str(err.value) == message


class TestSerialization:
    @given(graph_instances())
    @settings(max_examples=50)
    def test_text_roundtrip(self, inst):
        n, k, edges = inst
        g = OrderedHypergraph(n, k, edges)
        back, d = parse_edge_list(format_edge_list(g))
        assert back == g and d is None

    def test_header_carries_degree(self):
        g = OrderedHypergraph(4, 2, [(1, 2), (3, 4), (1, 3), (2, 4)])
        text = format_edge_list(g, d=2)
        back, d = parse_edge_list(text)
        assert back == g and d == 2
        assert text.startswith("# n=4 k=2 d=2\n")
        assert text.splitlines()[1] == "1 2"

    def test_rejects_headerless_text(self):
        with pytest.raises(DomainError):
            parse_edge_list("1 2\n3 4\n")

    def test_unordered_serializes_sorted(self):
        g = Hypergraph(4, 2, [(3, 4), (1, 2)])
        assert format_edge_list(g).splitlines()[1:] == ["1 2", "3 4"]


class TestOneCouplingStep:
    """`coupling.coupling_step` is the one resolution of a coupled step: no
    other definition asks a law for its near-uniformity verdict."""

    def test_only_the_step_decides_near_uniformity(self):
        found = [f"{path.name}: {where}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for where in near_uniformity_verdicts(path.read_text())]
        assert found == ["coupling.py: coupling_step"]

    def test_finder_sees_a_planted_second_verdict(self):
        # the deleted check's verdict, the trace loop's inlined one, and two
        # look-alikes: the definition itself and a bare name
        source = (
            "def check_near_uniformity(G, epsilon, params):\n"
            "    law = fam.state(fam.base)\n"
            "    return law.near_uniform(_exact_ratio(epsilon, params.M))\n"
            "class StateLaw:\n"
            "    def near_uniform(self, eps):\n"
            "        return near_uniform(self, eps)\n"
            "def _run_coupling(config, stream):\n"
            "    for t in range(M):\n"
            "        near = node.law.near_uniform(eps)\n")
        assert near_uniformity_verdicts(source) == [
            "check_near_uniformity", "_run_coupling"]


class TestOneRandomnessArgument:
    """`samplers.Pcg64Stream.of` is the one resolution of a randomness
    argument: no definition makes or accepts a numpy Generator except the
    handoff that lends one at the stream's position."""

    def test_only_the_handoff_makes_a_generator(self):
        found = [f"{path.name}: {where}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for where in randomness_bypasses(path.read_text())]
        assert found == ["samplers.py: Pcg64Stream.handoff"]

    def test_finder_sees_planted_bypasses(self):
        # a lent Generator, two Generator checks, the deleted dispatcher,
        # its import and the deleted write-back; then four look-alikes: the
        # handoff, a method named generator, an RngStream check and a
        # Generator class called by a local name
        source = (
            "def lend(rng):\n"
            "    return rng.generator()\n"
            "def accepts(rng):\n"
            "    return isinstance(rng, np.random.Generator)\n"
            "def accepts_either(rng):\n"
            "    return isinstance(rng, (RngStream, Generator))\n"
            "def as_generator(rng):\n"
            "    return rng\n"
            "def sample(rng):\n"
            "    from .samplers import as_generator\n"
            "    try:\n"
            "        return draw(rng)\n"
            "    finally:\n"
            "        rng.write_back()\n"
            "class Pcg64Stream:\n"
            "    def handoff(self):\n"
            "        self._gen = self._rng.generator()\n"
            "    def generator(self):\n"
            "        return isinstance(self._rng, RngStream)\n"
            "def _numpy_generator(words):\n"
            "    generator, pcg64 = _numpy_random\n"
            "    return generator(pcg64(words))\n")
        assert randomness_bypasses(source) == [
            "lend", "accepts", "accepts_either", "sample", "sample",
            "Pcg64Stream.handoff", "as_generator"]


def position_writes(source: str) -> list[str]:
    """The definitions holding an assignment to `<x>.bit_generator.state`
    (or to `.state` of a name `bit_generator`), or a `setattr` of such a
    `state`: a write of a numpy Generator's position."""
    def names_bits(node):
        return getattr(node, "attr", getattr(node, "id", None)) \
            == "bit_generator"

    def writes(node):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) \
                == "setattr" and len(node.args) == 3:
            return names_bits(node.args[0]) \
                and getattr(node.args[1], "value", None) == "state"
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            return False
        return any(isinstance(t, ast.Attribute) and t.attr == "state"
                   and names_bits(t.value)
                   for target in targets for t in ast.walk(target))

    return definitions_holding(source, writes)


class TestOneOwnerOfAStreamsPosition:
    """`samplers.Pcg64Stream` owns a stream's position: only its methods
    move the numpy Generator it lends, so a sampler that rewinds or
    replays a stream goes through the stream."""

    def test_only_the_stream_writes_a_generators_state(self):
        found = [f"{path.name}: {where}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for where in position_writes(path.read_text())]
        assert found, "the handoff positions the Generator it lends"
        assert [where for where in found
                if not where.startswith("samplers.py: Pcg64Stream.")] == []

    def test_finder_sees_planted_writes(self):
        # the kernel's old rewind, a setattr and the old handoff's local
        # name; then three look-alikes: a read of the state, the stream's
        # own state and a state attribute of something else
        source = (
            "def _configuration_rejection(G, params, gen):\n"
            "    saved = gen.bit_generator.state\n"
            "    gen.bit_generator.state = saved\n"
            "def rewind(gen, state):\n"
            "    setattr(gen.bit_generator, 'state', state)\n"
            "class Pcg64Stream:\n"
            "    def handoff(self):\n"
            "        bit_generator = self._gen.bit_generator\n"
            "        bit_generator.state = self.state\n"
            "    def of(self, value):\n"
            "        self.state = value\n"
            "        law.state = value\n")
        assert position_writes(source) == [
            "_configuration_rejection", "rewind", "Pcg64Stream.handoff"]


# the oracle's counts, and the estimators that ask one for an exact value
ORACLE_COUNTS = {"count_extensions", "completion_count", "extension_family",
                 "exact_simplicity_from_count", "simplicity_probability"}


def count_bypasses(source: str, module: str) -> list[str]:
    """The definitions holding a call of `count_extensions` outside
    oracle.py, a call of an oracle count that passes `budget=`, or any call
    that passes `exact_budget=`."""
    def accepts(node):
        if not isinstance(node, ast.Call):
            return False
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        keywords = {kw.arg for kw in node.keywords}
        return ((name == "count_extensions" and module != "oracle.py")
                or "exact_budget" in keywords
                or (name in ORACLE_COUNTS and "budget" in keywords))

    return definitions_holding(source, accepts)


class TestOneCompletionCount:
    """`oracle.completion_count` answers every count that lists nothing,
    under the one environment budget: outside the oracle nothing walks
    `count_extensions`, and no count takes a budget of its own."""

    def test_no_caller_walks_or_passes_a_budget(self):
        found = [f"{path.name}: {where}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for where in count_bypasses(path.read_text(), path.name)]
        assert found == []

    def test_no_count_takes_a_budget(self):
        from hypercouple import oracle, samplers

        for fn in (oracle.count_extensions, oracle.completion_count,
                   oracle.extension_family,
                   samplers.exact_simplicity_from_count,
                   samplers.simplicity_probability):
            assert not {"budget", "exact_budget"} & set(
                inspect.signature(fn).parameters), fn.__name__

    def test_finder_sees_planted_bypasses(self):
        # the deleted TV count's capped walk, the deleted identity route,
        # an estimator's exact budget, a budgeted listing and a walk with
        # no budget; then four look-alikes: the finder's own budget, a
        # count without one, the budget read and a walk named but not called
        source = (
            "def _run_couple(cfg):\n"
            "    size = count_extensions(first, p, budget=min(b, cap))\n"
            "def exact_simplicity_from_count(G, params, budget=None):\n"
            "    return oracle.count_extensions(G, params, budget=budget)\n"
            "def probe(G, p, rng):\n"
            "    return simplicity_probability(G, p, 5, rng, exact_budget=9)\n"
            "def listed(G, p):\n"
            "    return extension_family(G, p, budget=10)\n"
            "def walked(G, p):\n"
            "    return count_extensions(G, p).unordered_count\n"
            "def sweep(H, ell, budget):\n"
            "    res = find_hamilton_cycle(H, ell, budget=budget)\n"
            "    size = completion_count(first, p)\n"
            "    return node_budget(budget), count_extensions\n")
        assert count_bypasses(source, "experiments.py") == [
            "_run_couple", "exact_simplicity_from_count", "probe", "listed",
            "walked"]
        # inside the oracle a walk is no bypass, a budget still is
        assert count_bypasses(source, "oracle.py") == [
            "_run_couple", "exact_simplicity_from_count", "probe", "listed"]
