import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from minranklab import graphs
from minranklab.graphs import (
    Digraph,
    Graph,
    canonical_key,
    chromatic_number,
    complement,
    complete_graph,
    complete_multipartite,
    contains_subgraph,
    cycle_graph,
    degeneracy,
    empty_graph,
    greedy_coloring,
    independence_number,
    is_forest,
    is_tree,
    least_edge_mask,
    min_odd_cycle_at_most,
    named_graph,
    optimal_coloring,
    path_graph,
    sample_digraph,
    star_graph,
    underlying_graph,
    union_graph,
)

from _oracles import oracle_least_edge_mask, oracle_min_odd_cycle, oracle_min_vertex_cover


def all_graphs(n):
    for mask in range(1 << (n * (n - 1) // 2)):
        yield Graph.from_edge_mask(n, mask)


def random_graph(n, rng):
    return Graph.from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2))


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 0)])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    @pytest.mark.parametrize(
        "n, rows, pair",
        [
            (2, (0b00, 0b01), (1, 0)),
            # the 4-cycle 0-1-2-3 plus the bit 1 in row 3 alone
            (4, (0b1010, 0b0101, 0b1010, 0b0111), (3, 1)),
        ],
    )
    def test_rejects_an_asymmetric_bit_below_the_diagonal(self, n, rows, pair):
        # every bit above the diagonal has its mirror; the one bit below it
        # without a mirror is found and named
        with pytest.raises(ValueError, match=rf"^adjacency not symmetric at \({pair[0]},{pair[1]}\)$"):
            Graph(n, rows)

    def test_digraph_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Digraph.from_arcs(2, [(1, 1)])

    def test_edge_mask_roundtrip(self):
        for g in all_graphs(4):
            assert Graph.from_edge_mask(4, g.edge_mask()) == g

    def test_named_graphs(self):
        assert named_graph("K4") == complete_graph(4)
        assert named_graph("C5") == cycle_graph(5)
        assert named_graph("P3") == path_graph(3)
        assert named_graph("star3") == star_graph(3)
        assert named_graph("empty6") == empty_graph(6)
        with pytest.raises(ValueError):
            named_graph("Q17")
        with pytest.raises(ValueError):
            named_graph("C2")


class TestComplement:
    def test_complete_to_empty(self):
        assert complement(complete_graph(3)) == empty_graph(3)

    def test_involution_exhaustive(self):
        for g in all_graphs(4):
            assert complement(complement(g)) == g

    def test_c5_self_complementary(self):
        assert canonical_key(complement(cycle_graph(5))) == canonical_key(cycle_graph(5))


class TestContainsSubgraph:
    def test_clique_in_clique(self):
        assert contains_subgraph(complete_graph(4), complete_graph(3))

    def test_no_triangle_in_c5(self):
        assert not contains_subgraph(cycle_graph(5), complete_graph(3))

    def test_c5_in_complement_c7(self):
        assert contains_subgraph(complement(cycle_graph(7)), cycle_graph(5))

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            contains_subgraph(complete_graph(3), empty_graph(0))

    def test_monotone_in_host_edges(self):
        rng = random.Random(7)
        h = path_graph(3)
        for _ in range(50):
            g = random_graph(5, rng)
            before = contains_subgraph(g, h)
            pairs = [(u, v) for u in range(5) for v in range(u + 1, 5) if not g.has_edge(u, v)]
            if not pairs:
                continue
            extra = rng.choice(pairs)
            bigger = Graph.from_edges(5, g.edges() + [extra])
            if before:
                assert contains_subgraph(bigger, h)

    def test_antitone_in_pattern_edges(self):
        rng = random.Random(8)
        for _ in range(50):
            g = random_graph(6, rng)
            h = random_graph(4, rng)
            if h.edge_count() == 0:
                continue
            smaller = Graph.from_edges(4, h.edges()[:-1])
            if smaller.edge_count() and contains_subgraph(g, h):
                assert contains_subgraph(g, smaller)


class TestOddCycles:
    def test_c5_itself(self):
        assert min_odd_cycle_at_most(cycle_graph(5), 5) == 5

    def test_c5_triangle_free(self):
        assert min_odd_cycle_at_most(cycle_graph(5), 3) is None

    def test_c7_needs_the_full_depth(self):
        assert min_odd_cycle_at_most(cycle_graph(7), 7) == 7
        assert min_odd_cycle_at_most(cycle_graph(7), 5) is None

    def test_rejects_even_or_small_ell(self):
        with pytest.raises(ValueError):
            min_odd_cycle_at_most(cycle_graph(5), 4)
        with pytest.raises(ValueError):
            min_odd_cycle_at_most(cycle_graph(5), 1)

    def test_matches_bruteforce_small(self):
        for g in all_graphs(5):
            assert min_odd_cycle_at_most(g, 5) == oracle_min_odd_cycle(g, 5)

    def test_matches_bruteforce_sampled(self):
        rng = random.Random(11)
        for _ in range(12):
            g = random_graph(8, rng)
            assert min_odd_cycle_at_most(g, 7) == oracle_min_odd_cycle(g, 7)

    def test_matches_bruteforce_ten_vertices(self):
        rng = random.Random(13)
        for _ in range(2):
            g = random_graph(10, rng)
            assert min_odd_cycle_at_most(g, 7) == oracle_min_odd_cycle(g, 7)
        petersen = Graph.from_edges(
            10,
            [(i, (i + 1) % 5) for i in range(5)]
            + [(i, i + 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
        )
        assert min_odd_cycle_at_most(petersen, 7) == 5
        assert oracle_min_odd_cycle(petersen, 7) == 5
        nine_cycle_padded = Graph.from_edges(10, [(i, (i + 1) % 9) for i in range(9)])
        assert min_odd_cycle_at_most(nine_cycle_padded, 7) is None
        assert oracle_min_odd_cycle(nine_cycle_padded, 7) is None

    def test_bipartite_has_none(self):
        assert min_odd_cycle_at_most(complete_multipartite([3, 3]), 7) is None

    def test_layers_run_out_before_a_long_bound(self, monkeypatch):
        # the layers from each vertex of a path end one past its eccentricity
        # (at most 5 on P6), so a length bound past that adds no work
        walked = []
        bits = graphs._bits

        def counted(mask):
            walked.append(mask)
            if len(walked) > 10_000:
                raise RuntimeError("the layers never ran out")
            return bits(mask)

        monkeypatch.setattr(graphs, "_bits", counted)
        assert min_odd_cycle_at_most(path_graph(6), 13) is None
        short = walked[:]
        assert min_odd_cycle_at_most(path_graph(6), 10**9 + 1) is None
        assert walked == 2 * short


class TestDegeneracyColoring:
    def test_union_of_cliques(self):
        g = complement(complete_multipartite([4, 4]))  # two disjoint K4s
        assert degeneracy(g)[0] == 3

    def test_empty(self):
        assert degeneracy(empty_graph(5))[0] == 0

    def test_cycle(self):
        assert degeneracy(cycle_graph(5))[0] == 2

    def test_greedy_reverse_elimination_bound(self):
        rng = random.Random(3)
        for _ in range(40):
            g = random_graph(8, rng)
            d, order = degeneracy(g)
            colors = greedy_coloring(g, order[::-1])
            assert max(colors, default=-1) + 1 <= d + 1


class TestExactNumbers:
    def test_alpha_known(self):
        assert independence_number(complete_graph(6)) == 1
        assert independence_number(cycle_graph(5)) == 2
        assert independence_number(complete_multipartite([2, 2, 2])) == 2

    def test_alpha_vs_vertex_cover_exhaustive(self):
        for g in all_graphs(4):
            assert independence_number(g) == 4 - oracle_min_vertex_cover(g)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_alpha_vs_vertex_cover_sampled(self, n):
        rng = random.Random(n)
        for _ in range(25):
            g = random_graph(n, rng)
            assert independence_number(g) == n - oracle_min_vertex_cover(g)

    def test_chi_known(self):
        assert chromatic_number(empty_graph(5)) == 1
        assert chromatic_number(cycle_graph(5)) == 3
        assert chromatic_number(complement(complete_multipartite([2, 2, 2]))) == 2
        assert chromatic_number(complete_graph(7)) == 7

    def test_chi_vs_bruteforce_exhaustive(self):
        from itertools import product as iproduct

        for g in all_graphs(4):
            brute = None
            for k in range(1, 5):
                if any(
                    all(colors[u] != colors[v] for u, v in g.edges())
                    for colors in iproduct(range(k), repeat=4)
                ):
                    brute = k
                    break
            assert chromatic_number(g) == brute

    def test_chi_greedy_bound_sampled(self):
        rng = random.Random(4)
        for _ in range(25):
            g = random_graph(7, rng)
            chi = chromatic_number(g)
            assert chi <= max(greedy_coloring(g), default=-1) + 1
            assert chi >= independence_number(complement(g))


class TestMultipartite:
    def test_k3(self):
        assert complete_multipartite([1, 1, 1]) == complete_graph(3)

    def test_single_part_empty(self):
        assert complete_multipartite([3]) == empty_graph(3)

    def test_two_by_two(self):
        g = complete_multipartite([2, 2])
        assert independence_number(g) == 2
        assert chromatic_number(complement(g)) == 2

    def test_rejects_empty_or_nonpositive(self):
        with pytest.raises(ValueError):
            complete_multipartite([])
        with pytest.raises(ValueError):
            complete_multipartite([2, 0])


class TestTrees:
    def test_forest_and_tree_predicates(self):
        assert is_tree(path_graph(4))
        assert is_tree(star_graph(3))
        assert not is_tree(cycle_graph(4))
        assert is_forest(empty_graph(3))
        assert not is_tree(empty_graph(3))
        assert not is_forest(cycle_graph(3))


class TestSampling:
    def test_extremes(self):
        assert sample_digraph(6, 0.0, 1).arc_count() == 0
        assert sample_digraph(6, 1.0, 1).arc_count() == 30

    def test_reproducible(self):
        assert sample_digraph(10, 0.3, 99) == sample_digraph(10, 0.3, 99)
        assert sample_digraph(10, 0.3, 99) != sample_digraph(10, 0.3, 100)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            sample_digraph(4, 1.5, 0)

    def test_underlying_density_concentrates(self):
        # both arcs survive with probability 1/4 at p = 0.5
        d = sample_digraph(1000, 0.5, 2026)
        g = underlying_graph(d)
        density = g.edge_count() / (1000 * 999 / 2)
        assert abs(density - 0.25) < 0.01

    def test_underlying_and_union(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 0), (1, 2)])
        assert underlying_graph(d) == Graph.from_edges(3, [(0, 1)])
        assert union_graph(d) == Graph.from_edges(3, [(0, 1), (1, 2)])


def to_networkx(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def is_proper(g, colors):
    """Every vertex colored, and no edge inside a color class."""
    return min(colors, default=0) >= 0 and all(colors[u] != colors[v] for u, v in g.edges())


def relabeled(g, perm):
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def degree_preserving_swap(g, rng):
    """Replace edges ab, cd by ad, cb when both are non-edges; else return g."""
    (a, b), (c, d) = rng.sample(g.edges(), 2)
    if rng.random() < 0.5:
        c, d = d, c
    if len({a, b, c, d}) < 4 or g.has_edge(a, d) or g.has_edge(c, b):
        return g
    edges = set(g.edges()) - {(a, b), (min(c, d), max(c, d))}
    return Graph.from_edges(g.n, edges | {(a, d), (c, b)})


@st.composite
def small_graphs(draw):
    """Graphs on at most 8 vertices: a uniform random edge set, or a cycle of
    random length through random vertices plus at most two chords, so that
    the shortest odd cycle takes every length up to 7."""
    n = draw(st.integers(0, 8))
    if draw(st.booleans()):
        return Graph.from_edge_mask(n, draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))
    length = draw(st.sampled_from([k for k in range(n + 1) if k not in (1, 2)]))
    order = draw(st.permutations(range(n)))[:length]
    edges = list(zip(order, order[1:] + order[:1])) if length else []
    vertex = st.integers(0, max(n - 1, 0))
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=2))
    return Graph.from_edges(n, [(u, v) for u, v in edges if u != v])


class TestAgainstNetworkx:
    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_alpha_is_the_largest_clique_of_the_complement(self, g):
        cliques = nx.find_cliques(nx.complement(to_networkx(g)))
        assert independence_number(g) == max(map(len, cliques), default=0)

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(), st.sampled_from([3, 5, 7]))
    def test_min_odd_cycle_is_the_shortest_simple_odd_cycle(self, g, ell):
        cycles = nx.simple_cycles(to_networkx(g), length_bound=ell)
        odd = [len(c) for c in cycles if len(c) % 2]
        assert min_odd_cycle_at_most(g, ell) == min(odd, default=None)

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(), st.sampled_from(["K1", "K3", "K4", "C4", "C5", "P4", "star3"]))
    def test_containment_is_a_monomorphism(self, g, name):
        h = named_graph(name)
        matcher = GraphMatcher(to_networkx(g), to_networkx(h))
        assert contains_subgraph(g, h) == matcher.subgraph_is_monomorphic()

    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_forest_and_tree_agree_with_networkx(self, g):
        graph = to_networkx(g)  # networkx refuses to classify the null graph
        assert is_forest(g) == (g.n == 0 or nx.is_forest(graph))
        assert is_tree(g) == (g.n > 0 and nx.is_tree(graph))

    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_chi_is_the_fewest_maximal_independent_sets_covering_v(self, g):
        # every independent set lies in a maximal one, so the fewest color
        # classes are the fewest maximal independent sets whose union is V
        sets = [frozenset(c) for c in nx.find_cliques(nx.complement(to_networkx(g)))]
        fewest = next(
            k
            for k in range(g.n + 1)
            if any(len(frozenset().union(*cover)) == g.n for cover in combinations(sets, k))
        )
        assert chromatic_number(g) == fewest

    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_colorings_are_proper(self, g):
        chi = chromatic_number(g)
        optimal = optimal_coloring(g, chi)
        assert is_proper(g, optimal) and len(set(optimal)) == chi
        assert is_proper(g, greedy_coloring(g))
        assert is_proper(g, greedy_coloring(g, degeneracy(g)[1][::-1]))


class TestCanonicalKey:
    @pytest.mark.parametrize("n, classes", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)])
    def test_classes_match_networkx(self, n, classes):
        by_key = {}
        for g in all_graphs(n):
            by_key.setdefault(canonical_key(g), []).append(g)
        assert len(by_key) == classes
        reps = [to_networkx(members[0]) for members in by_key.values()]
        for rep, members in zip(reps, by_key.values()):
            assert all(nx.is_isomorphic(rep, to_networkx(g)) for g in members[1:])
        for i, a in enumerate(reps):
            assert not any(nx.is_isomorphic(a, b) for b in reps[i + 1:])

    @pytest.mark.parametrize("n", [7, 8])
    def test_random_relabeling(self, n):
        rng = random.Random(n)
        for _ in range(100):
            g = random_graph(n, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_key(g) == canonical_key(relabeled(g, perm))

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_same_degree_sequence_agrees_with_networkx(self, n):
        rng = random.Random(100 + n)
        seen = set()
        for _ in range(60):
            g = random_graph(n, rng)
            if g.edge_count() < 2:
                continue
            h = g
            for _ in range(rng.randrange(1, 4)):
                h = degree_preserving_swap(h, rng)
            expected = nx.is_isomorphic(to_networkx(g), to_networkx(h))
            assert (canonical_key(g) == canonical_key(h)) == expected
            seen.add(expected)
        assert seen == {True, False}

    def test_regular_graphs_refinement_cannot_split(self):
        two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert canonical_key(cycle_graph(6)) != canonical_key(two_triangles)
        two_squares = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (0, 3),
                                           (4, 5), (5, 6), (6, 7), (4, 7)])
        assert canonical_key(cycle_graph(8)) != canonical_key(two_squares)
        c8 = relabeled(cycle_graph(8), [3, 0, 6, 1, 4, 7, 2, 5])
        assert canonical_key(cycle_graph(8)) == canonical_key(c8)

    def test_twins(self):
        g = complete_multipartite([3, 3, 2])
        assert canonical_key(g) == canonical_key(relabeled(g, [7, 2, 5, 0, 3, 6, 1, 4]))
        assert canonical_key(g) != canonical_key(complete_multipartite([4, 2, 2]))
        assert canonical_key(empty_graph(8)) != canonical_key(complete_graph(8))

    def test_vertex_count_and_limit(self):
        assert canonical_key(empty_graph(3)) != canonical_key(empty_graph(4))
        # no vertex-count limit: a relabeled C9 keeps its key
        c9 = relabeled(cycle_graph(9), [4, 0, 7, 2, 8, 5, 1, 6, 3])
        assert canonical_key(cycle_graph(9)) == canonical_key(c9)


class TestLeastEdgeMask:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_every_graph_matches_the_relabeling_oracle(self, n):
        for g in all_graphs(n):
            assert least_edge_mask(g) == oracle_least_edge_mask(g)

    def test_sample_at_seven_matches_the_relabeling_oracle(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_graph(7, rng)
            assert least_edge_mask(g) == oracle_least_edge_mask(g)
