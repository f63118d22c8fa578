import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minranklab import graphs, minrank
from minranklab.budgets import BudgetExceededError
from minranklab.graphs import (
    Digraph,
    Graph,
    bidirected,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    empty_graph,
)
from minranklab.matrices import FieldMatrix
from minranklab.minrank import (
    _nonzero_functionals,
    minrank_bounds,
    minrank_exact,
    represents,
    solver_work_estimate,
)

from _builders import field_all_ones, field_identity, rational_identity
from _oracles import oracle_first_feasible_space, oracle_minrank, oracle_rref


def all_graphs(n):
    for mask in range(1 << (n * (n - 1) // 2)):
        yield Graph.from_edge_mask(n, mask)


def seeded_digraph(seed, n):
    rng = random.Random(seed)
    return Digraph.from_arcs(
        n, [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.5]
    )


# (p, seed, n, value, lower, upper, witness) for seeded_digraph(seed, n); each
# value is below the upper bound, so the enumeration supplies the witness. The
# search for value k runs in W when 2k <= n and in W-perp otherwise: per field,
# the first entry is found in W and the second in W-perp.
PINNED_WITNESSES = [
    (2, 8, 7, 3, 2, 4, [[1, 1, 0, 1, 0, 1, 1], [0, 1, 1, 0, 0, 0, 1], [0, 0, 1, 1, 1, 0, 0],
                        [0, 0, 1, 1, 1, 0, 0], [1, 0, 0, 0, 1, 1, 0], [1, 0, 0, 0, 1, 1, 0],
                        [0, 1, 1, 0, 0, 0, 1]]),
    (2, 0, 7, 4, 3, 5, [[1, 0, 0, 1, 1, 0, 0], [0, 1, 1, 0, 0, 0, 0], [1, 0, 1, 0, 1, 0, 0],
                        [0, 0, 1, 1, 0, 0, 0], [1, 1, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1, 1],
                        [0, 0, 0, 0, 0, 1, 1]]),
    (3, 1, 6, 3, 3, 4, [[2, 1, 0, 0, 2, 0], [2, 1, 0, 0, 2, 0], [0, 0, 1, 0, 0, 1],
                        [0, 1, 0, 1, 0, 0], [1, 0, 0, 1, 1, 0], [0, 0, 1, 0, 0, 1]]),
    (3, 0, 6, 4, 2, 5, [[2, 0, 0, 1, 0, 0], [0, 2, 0, 0, 1, 0], [0, 0, 1, 0, 0, 0],
                        [2, 0, 0, 1, 0, 0], [0, 0, 0, 0, 2, 1], [0, 2, 0, 0, 0, 1]]),
    (5, 111, 5, 2, 1, 3, [[1, 0, 1, 0, 1], [0, 1, 0, 1, 1], [1, 0, 1, 0, 1],
                          [4, 1, 4, 1, 0], [0, 1, 0, 1, 1]]),
    (5, 9, 5, 3, 2, 4, [[4, 0, 0, 1, 0], [4, 4, 0, 0, 1], [0, 0, 1, 0, 0],
                        [0, 4, 0, 4, 1], [4, 4, 0, 0, 1]]),
]


class TestRepresents:
    def test_identity_represents_empty(self):
        assert represents(field_identity(2, 4), empty_graph(4))

    def test_all_ones_represents_complete(self):
        assert represents(field_all_ones(3, 5, 5), complete_graph(5))

    def test_nonedge_violation(self):
        m = FieldMatrix.from_rows(2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        g = Graph.from_edges(3, [(1, 2)])  # (0,1) is a non-edge
        assert not represents(m, g)

    def test_zero_diagonal_rejected(self):
        m = FieldMatrix.from_rows(2, [[0, 0], [0, 1]])
        assert not represents(m, empty_graph(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            represents(field_identity(2, 3), empty_graph(4))
        with pytest.raises(ValueError):
            represents(FieldMatrix.from_rows(2, [[1, 0]]), empty_graph(1))

    def test_digraph_direction_matters(self):
        d = Digraph.from_arcs(2, [(0, 1)])
        upper = FieldMatrix.from_rows(2, [[1, 1], [0, 1]])
        lower = FieldMatrix.from_rows(2, [[1, 0], [1, 1]])
        assert represents(upper, d)
        assert not represents(lower, d)

    def test_rational_matrix(self):
        assert represents(rational_identity(3), empty_graph(3))


class TestBounds:
    def test_known_values(self):
        b = minrank_bounds(complete_multipartite([2, 2, 2]))
        assert (b.lower, b.upper) == (2, 2)
        b = minrank_bounds(cycle_graph(5))
        assert (b.lower, b.upper) == (2, 3)
        b = minrank_bounds(complete_graph(7))
        assert (b.lower, b.upper) == (1, 1)

    def test_exactness_flags(self, monkeypatch):
        b = minrank_bounds(cycle_graph(5))
        assert b.lower_exact and b.upper_exact
        monkeypatch.setattr(minrank, "ALPHA_LIMIT", 3)
        monkeypatch.setattr(minrank, "CHI_LIMIT", 3)
        b = minrank_bounds(cycle_graph(5))
        assert not b.lower_exact and not b.upper_exact
        assert b.lower <= 2 and b.upper >= 3  # greedy sides still bound


class TestSolverAnchors:
    @pytest.mark.parametrize("p", [2, 3])
    def test_complete_and_empty(self, p):
        for n in range(1, 7):
            assert minrank_exact(complete_graph(n), p).value == 1
            assert minrank_exact(empty_graph(n), p).value == n

    def test_c5(self):
        assert minrank_exact(cycle_graph(5), 2).value == 3

    @pytest.mark.parametrize("p", [2, 3])
    def test_zero_vertices(self, p):
        # the 0 x 0 matrix is the only witness, and both bounds are 0
        assert minrank_exact(empty_graph(0), p) == minrank.MinrankResult(
            0, FieldMatrix(p, ()), 0, 0
        )

    def test_multipartite(self):
        assert minrank_exact(complete_multipartite([2, 2, 2]), 2).value == 2
        for p in (2, 3):
            assert minrank_exact(complete_multipartite([2, 2]), p).value == 2

    def test_rejects_nonprime_field(self):
        with pytest.raises(ValueError):
            minrank_exact(cycle_graph(5), 4)


# per field, the most arcs whose p^arcs fillings the oracle lists (at most 15,625)
ORACLE_MAX_ARCS = {2: 13, 3: 8, 5: 6}


class TestSolverAgainstOracle:
    @pytest.mark.parametrize("p", [2, 3])
    def test_exhaustive_n3(self, p):
        for g in all_graphs(3):
            assert minrank_exact(g, p).value == oracle_minrank(g, p)

    def test_unit_diagonal_reduction_sound(self):
        # row scaling justifies the unit-diagonal oracle; cross-check raw
        for p in (2, 3):
            for g in all_graphs(3):
                assert oracle_minrank(g, p, unit_diagonal=False) == oracle_minrank(
                    g, p, unit_diagonal=True
                )

    def test_sampled_n5_gf2(self):
        rng = random.Random(17)
        seen = 0
        while seen < 25:
            mask = rng.getrandbits(10)
            g = Graph.from_edge_mask(5, mask)
            if g.edge_count() > 8:
                continue  # keep the oracle enumeration small
            seen += 1
            assert minrank_exact(g, 2).value == oracle_minrank(g, 2)

    def test_digraphs_against_oracle(self):
        rng = random.Random(23)
        for _ in range(20):
            arcs = [
                (i, j)
                for i in range(4)
                for j in range(4)
                if i != j and rng.random() < 0.4
            ]
            d = Digraph.from_arcs(4, arcs)
            assert minrank_exact(d, 2).value == oracle_minrank(d, 2)

    @pytest.mark.parametrize("p, max_arcs", [(3, 5), (5, 5), (7, 4)])
    def test_digraphs_against_oracle_odd_fields(self, p, max_arcs):
        rng = random.Random(37 + p)
        seen = 0
        while seen < 15:
            arcs = [
                (i, j)
                for i in range(4)
                for j in range(4)
                if i != j and rng.random() < 0.4
            ]
            if len(arcs) > max_arcs:
                continue  # keep the oracle enumeration small
            seen += 1
            d = Digraph.from_arcs(4, arcs)
            assert minrank_exact(d, p).value == oracle_minrank(d, p)

    def test_bidirected_matches_graph(self):
        for g in all_graphs(4):
            assert minrank_exact(bidirected(g), 2).value == minrank_exact(g, 2).value

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_digraphs_against_oracle(self, data):
        p = data.draw(st.sampled_from(sorted(ORACLE_MAX_ARCS)))
        n = data.draw(st.integers(1, 5))
        cells = [(i, j) for i in range(n) for j in range(n) if i != j]
        arcs = data.draw(st.lists(st.sampled_from(cells), unique=True,
                                  max_size=ORACLE_MAX_ARCS[p])) if cells else []
        d = Digraph.from_arcs(n, arcs)
        r = TestCanonicalOrder.checked(d, p)
        assert r.value == oracle_minrank(d, p)


class TestKernel:
    @pytest.mark.parametrize("p, d", [(2, 1), (2, 4), (3, 2), (3, 3), (5, 2), (7, 1)])
    def test_functional_masks(self, p, d):
        # p^(d-1) of the (p^d - 1)/(p - 1) projective points miss a nonzero c's kernel
        table = _nonzero_functionals(p, d)
        assert len(table) == p**d and table[0] == 0
        assert all(mask.bit_count() == p ** (d - 1) for mask in table[1:])
        assert max(table).bit_length() == (p**d - 1) // (p - 1)

    @pytest.mark.parametrize("p, n_one, n_two", [(2, 11, 8), (3, 7, 6), (5, 6, 5)])
    def test_acyclic_digraphs_have_full_minrank(self, p, n_one, n_two):
        # the bounds leave k = n-1 (one arc) and k = n-2, n-1 (two disjoint
        # arcs) to the enumeration, which runs them in W-perp
        one = minrank_exact(Digraph.from_arcs(n_one, [(0, 1)]), p)
        assert (one.lower, one.value) == (n_one - 1, n_one)
        two = minrank_exact(Digraph.from_arcs(n_two, [(0, 1), (2, 3)]), p)
        assert (two.lower, two.value) == (n_two - 2, n_two)

    @pytest.mark.parametrize("p, seed, n, value, lower, upper, rows", PINNED_WITNESSES)
    def test_pinned_witnesses(self, p, seed, n, value, lower, upper, rows):
        r = minrank_exact(seeded_digraph(seed, n), p)
        assert (r.value, r.lower, r.upper) == (value, lower, upper)
        assert r.witness == FieldMatrix.from_rows(p, rows)


class TestWitnessContracts:
    @pytest.mark.parametrize("p", [2, 3])
    def test_witness_invariants_sampled(self, p):
        rng = random.Random(29)
        for _ in range(15):
            g = Graph.from_edge_mask(5, rng.getrandbits(10))
            r = minrank_exact(g, p)
            assert r.lower <= r.value <= r.upper
            assert represents(r.witness, g)
            assert r.witness.rank() == r.value

    def test_witness_deterministic(self):
        g = cycle_graph(5)
        assert minrank_exact(g, 2).witness == minrank_exact(g, 2).witness

    def test_jobs_other_than_one_refused(self):
        assert minrank_exact(cycle_graph(5), 2, jobs=1).value == 3
        with pytest.raises(ValueError, match="runs in one process"):
            minrank_exact(cycle_graph(5), 2, jobs=2)


def all_digraphs(n):
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    for mask in range(1 << len(cells)):
        yield Digraph.from_arcs(n, [c for b, c in enumerate(cells) if (mask >> b) & 1])


class TestCanonicalOrder:
    """Below the upper bound the witness spans the first feasible space in the
    documented canonical order, which the brute-force oracle lists itself."""

    @staticmethod
    def checked(g, p):
        """Solve g; if the enumeration decides it, check the witness."""
        r = minrank_exact(g, p)
        if r.value < r.upper:
            rows = [list(row) for row in r.witness.entries]
            assert oracle_rref(rows, p) == oracle_first_feasible_space(g, p, r.value)
        return r

    @classmethod
    def sides_checked(cls, graphs, p):
        """Check each graph that the enumeration decides; per checked graph,
        whether it was decided in W-perp (2k > n)."""
        sides = []
        for g in graphs:
            r = cls.checked(g, p)
            if r.value < r.upper:
                sides.append(2 * r.value > g.n)
        return sides

    @staticmethod
    def root_cuts(g, p, k):
        """How many pivot sets of the listed space S (W when 2k <= n, W-perp
        otherwise) a vertex test refuses before any free cell is filled: the
        test reads only columns that no free cell sets (cell (r, j) sets
        column j), so it is decided on the pivot rows alone, here by listing
        their span. In W, v passes when some vector is nonzero at v and zero
        outside allowed[v]; in W-perp, when none is nonzero at v and zero on
        v's out-neighbors."""
        n = g.n
        dual = 2 * k > n
        cuts = 0
        for pivots in combinations(range(n), n - k if dual else k):
            touched = {j for c in pivots for j in range(c + 1, n) if j not in pivots}
            space = [[coeffs[pivots.index(j)] if j in pivots else 0 for j in range(n)]
                     for coeffs in product(range(p), repeat=len(pivots))]
            for v in range(n):
                allowed = {v} | {j for j in range(n) if (g.adj[v] >> j) & 1}
                zero = allowed - {v} if dual else set(range(n)) - allowed
                survives = any(x[v] and not any(x[j] for j in zero) for x in space)
                if not ({v} | zero) & touched and survives == dual:
                    cuts += 1
                    break
        return cuts

    def test_witness_of_column_major_order(self):
        # k = 3 <= n/2, so the scan runs in W and fills column-major; the first
        # feasible space in row-major order gives another witness
        g = Digraph(6, (50, 36, 10, 21, 15, 28))
        r = self.checked(g, 3)
        assert (r.value, r.lower, r.upper) == (3, 2, 4)
        assert r.witness == FieldMatrix.from_rows(3, [
            [1, 0, 0, 0, 1, 1], [0, 1, 0, 0, 0, 1], [0, 2, 1, 1, 0, 0],
            [2, 0, 1, 1, 2, 0], [2, 1, 0, 0, 2, 0], [0, 0, 1, 1, 0, 1],
        ])

    def test_witness_of_w_perp_order(self):
        # k = 3 > n/2, so the scan lists the 1-dimensional W-perp in its own
        # echelon form; listing W's pivot sets and filling W-perp row-major
        # gives another witness, whose last row is [1, 0, 0, 1]
        g = Digraph(4, (4, 1, 2, 3))
        r = self.checked(g, 2)
        assert (r.value, r.lower, r.upper) == (3, 2, 4)
        assert r.witness == FieldMatrix.from_rows(2, [
            [1, 0, 1, 0], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1],
        ])

    def test_every_digraph_gf2(self):
        graphs = (g for n in range(1, 5) for g in all_digraphs(n))
        assert set(self.sides_checked(graphs, 2)) == {False, True}

    @pytest.mark.parametrize("p, n_max", [(3, 5), (5, 4)])
    def test_seeded_digraphs_odd_fields(self, p, n_max):
        # most small digraphs meet their upper bound, so draw until 30 do not
        rng = random.Random(p)
        sides = []
        while len(sides) < 30:
            n = rng.randint(3, n_max)
            density = rng.choice((0.5, 0.7))
            cells = [(i, j) for i in range(n) for j in range(n) if i != j]
            arcs = [cell for cell in cells if rng.random() < density]
            sides += self.sides_checked([Digraph.from_arcs(n, arcs)], p)
        assert set(sides) == {False, True}

    def test_every_graph_n5_gf2(self):
        # every 5-vertex graph meets its upper bound over GF(2), so no witness
        # comes from the enumeration; its scans below the value must all come
        # back empty, pivot sets cut at the root among them
        cuts = 0
        for g in all_graphs(5):
            r = minrank_exact(g, 2)
            assert r.value == r.upper
            for k in range(r.lower, r.value):
                assert oracle_first_feasible_space(g, 2, k) is None
                cuts += self.root_cuts(g, 2, k)
        assert cuts > 0

    # over GF(3) the oracle still fills every space up to the witness: twenty
    # graphs, six of them in W-perp, take it and the solver about 2 s
    @pytest.mark.parametrize("p, seed, count", [(2, 12, 30), (3, 11, 20)])
    def test_seeded_digraphs_n6(self, p, seed, count):
        rng = random.Random(seed)
        cells = [(i, j) for i in range(6) for j in range(6) if i != j]
        sides, cuts = [], 0
        while len(sides) < count:
            density = rng.choice((0.5, 0.7))
            g = Digraph.from_arcs(6, [cell for cell in cells if rng.random() < density])
            r = self.checked(g, p)
            if r.value < r.upper:
                sides.append(2 * r.value > 6)
                cuts += sum(self.root_cuts(g, p, k) for k in range(r.lower, r.value))
        assert set(sides) == {False, True} and cuts > 0


class TestAnswerChecks:
    def test_failed_witness_check_raises_runtime_error(self, monkeypatch):
        # the checks are explicit raises, so they also hold under python -O
        monkeypatch.setattr("minranklab.minrank.represents", lambda m, g: False)
        with pytest.raises(RuntimeError, match="does not represent"):
            minrank_exact(cycle_graph(5), 2)

    def test_wrong_witness_rank_raises_runtime_error(self, monkeypatch):
        # C5 is answered by its coloring witness, which is rank-checked too
        monkeypatch.setattr(FieldMatrix, "rank", lambda self: 0)
        with pytest.raises(RuntimeError, match="has rank 0"):
            minrank_exact(cycle_graph(5), 2)


class TestColoringPath:
    def test_split_coloring_is_refused_by_its_rank(self, monkeypatch):
        # a proper coloring of C5's cover graph with one class split in two has
        # 4 classes, so its all-ones-block witness has rank 4, not the value 3
        color = minrank.optimal_coloring

        def split(g, k):
            colors = color(g, k)
            colors[next(v for v in range(g.n) if colors[v] in colors[:v])] = k
            return colors

        monkeypatch.setattr(minrank, "optimal_coloring", split)
        with pytest.raises(RuntimeError, match="^internal error: the rank-3 witness has rank 4$"):
            minrank_exact(cycle_graph(5), 2)

    def test_chromatic_number_computed_once(self, monkeypatch):
        # C5 is answered by its coloring witness: chi(complement) = upper = 3
        calls = []
        chromatic = graphs.chromatic_number

        def counted(g):
            calls.append(g.n)
            return chromatic(g)

        monkeypatch.setattr(graphs, "chromatic_number", counted)
        monkeypatch.setattr(minrank, "chromatic_number", counted)
        result = minrank_exact(cycle_graph(5), 2)
        assert (result.value, result.upper, calls) == (3, 3, [5])


class TestMonotonicity:
    def test_adding_edges_never_increases_minrank(self):
        rng = random.Random(31)
        for _ in range(8):
            g = Graph.from_edge_mask(6, rng.getrandbits(15) & rng.getrandbits(15))
            previous = minrank_exact(g, 2).value
            missing = [
                (u, v)
                for u in range(6)
                for v in range(u + 1, 6)
                if not g.has_edge(u, v)
            ]
            rng.shuffle(missing)
            for extra in missing[:4]:
                g = Graph.from_edges(6, g.edges() + [extra])
                value = minrank_exact(g, 2).value
                assert value <= previous
                previous = value


class TestBudget:
    def test_refuses_oversized_enumeration(self):
        with pytest.raises(BudgetExceededError):
            minrank_exact(cycle_graph(9), 2)
        with pytest.raises(BudgetExceededError):
            minrank_exact(cycle_graph(7), 5)

    def test_estimate_is_subspaces_times_vertices(self):
        # C7 over GF(3): 925,771 three-dimensional subspaces of GF(3)^7, times 7
        assert solver_work_estimate(7, 3, 3, 4) == 6_480_397

    def test_equal_bounds_bypass_enumeration(self):
        # no enumeration is needed, so even huge graphs answer instantly
        assert minrank_exact(empty_graph(30), 2).value == 30
        assert minrank_exact(complete_graph(30), 3).value == 1

    def test_c7_gf5_with_a_raised_budget(self):
        # every 3-dimensional space of GF(5)^7 fails, so the coloring witness
        # decides the value
        estimate = solver_work_estimate(7, 5, 3, 4)
        r = minrank_exact(cycle_graph(7), 5, work_budget=estimate)
        assert (r.value, r.lower, r.upper) == (4, 3, 4)

    def test_budget_override(self):
        g = cycle_graph(7)
        estimate = solver_work_estimate(7, 3, 3, 4)
        with pytest.raises(BudgetExceededError):
            minrank_exact(g, 3, work_budget=estimate - 1)
        result = minrank_exact(g, 3, work_budget=estimate)
        assert result.value == 4  # alpha=3 infeasible, chi-bar witness at 4
