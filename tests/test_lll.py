import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import minranklab
from minranklab.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    named_graph,
    path_graph,
    star_graph,
)
from minranklab.lll import (
    E3_LOWER,
    E3_UPPER,
    _is_prime_power,
    check_lll_inequalities,
    find_constants,
    find_threshold,
    gamma_stats,
)

from _oracles import geometric_sum_direct, oracle_smallest_factor


def test_importing_the_cli_leaves_mpmath_unloaded():
    # only check_lll_inequalities needs mpmath, so only it imports mpmath
    src = str(Path(minranklab.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import minranklab.cli; "
        "print('mpmath' in sys.modules)"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")


def test_e3_bounds_are_certified():
    assert E3_LOWER < E3_UPPER
    assert float(E3_LOWER) <= math.exp(3) <= float(E3_UPPER)
    assert float(E3_UPPER - E3_LOWER) < 1e-20


class TestGammaStats:
    def test_triangle(self):
        st = gamma_stats(complete_graph(3))
        assert (st.h, st.f) == (3, 3)
        assert st.gamma == st.gamma0 == Fraction(1, 2)

    @pytest.mark.parametrize("t,expected", [(3, "1/2"), (4, "2/5"), (5, "1/3")])
    def test_clique_formula(self, t, expected):
        # (t-2)/(C(t,2)-1) simplifies to 2/(t+1)
        st = gamma_stats(complete_graph(t))
        assert st.gamma0 == Fraction(expected) == Fraction(2, t + 1)

    def test_c5(self):
        st = gamma_stats(cycle_graph(5))
        assert st.gamma == Fraction(3, 4)
        assert st.gamma0 == Fraction(3, 4)  # proper >=3-edge subgraphs are paths

    def test_requires_three_edges(self):
        with pytest.raises(ValueError):
            gamma_stats(path_graph(3))

    def test_gamma0_below_one_iff_cyclic(self):
        for g, cyclic in [
            (path_graph(5), False),
            (star_graph(4), False),
            (cycle_graph(4), True),
            (cycle_graph(7), True),
            (complete_graph(4), True),
            (Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), False),
        ]:
            assert (gamma_stats(g).gamma0 < 1) == cyclic

    def test_gamma0_at_most_gamma(self):
        for name in ("K3", "K4", "K5", "C5", "C7"):
            st = gamma_stats(named_graph(name))
            assert st.gamma0 <= st.gamma


class TestConstants:
    @pytest.mark.parametrize("name", ["K3", "K4", "C5"])
    @pytest.mark.parametrize("q", [2, 3])
    def test_items_hold(self, name, q):
        inst = find_constants(gamma_stats(named_graph(name)), q)
        assert inst.constraint_items() == (True, True, True)

    def test_item3_with_equality(self):
        inst = find_constants(gamma_stats(complete_graph(3)), 2)
        assert inst.c1 == inst.c4 / 32

    def test_halving_c2_stays_feasible(self):
        # the geometric search path is downward closed
        stats = gamma_stats(complete_graph(3))
        inst = find_constants(stats, 2)
        c2 = inst.c2 / 2
        c3 = math.factorial(stats.h) * E3_UPPER * (2 * c2) ** stats.f
        c4 = c2 / 4 - c3
        c1 = c4 / 32
        assert c4 > 0
        assert c2 > 2 * (2 * c3 + c4)
        assert c3 >= math.factorial(stats.h) * (2 * c2) ** stats.f * E3_UPPER
        assert c4 >= 32 * c1

    def test_field_size_validation(self):
        with pytest.raises(ValueError):
            find_constants(gamma_stats(complete_graph(3)), 1)

    @pytest.mark.parametrize("q", [6, 10])
    def test_field_size_not_a_prime_power_refused(self, q):
        with pytest.raises(ValueError, match=f"^field size {q} is not a prime power$"):
            find_constants(gamma_stats(complete_graph(3)), q)

    @pytest.mark.parametrize("q", [4, 9])
    def test_prime_power_field_size_accepted(self, q):
        inst = find_constants(gamma_stats(complete_graph(3)), q)
        assert inst.field_size == q and inst.constraints_ok()


def test_prime_powers_agree_with_trial_division_below_1e5():
    for q in range(2, 10**5):
        d = oracle_smallest_factor(q)
        rest = q
        while rest % d == 0:
            rest //= d
        assert _is_prime_power(q) == (rest == 1), q


def test_large_prime_powers():
    p = 100_000_000_000_031
    assert _is_prime_power(p) and _is_prime_power(p**2) and _is_prime_power(2**4000)
    assert not _is_prime_power(p * (p + 2)) and not _is_prime_power(6**40)


class TestChecker:
    def test_tiny_n_fails(self):
        inst = find_constants(gamma_stats(complete_graph(3)), 2)
        report = check_lll_inequalities(inst, 2)
        assert not report.holds
        assert "events_exist" in report.failures

    def test_rejects_n_below_two(self):
        inst = find_constants(gamma_stats(complete_graph(3)), 2)
        with pytest.raises(ValueError):
            check_lll_inequalities(inst, 1)

    def test_threshold_exists_and_is_sharp(self):
        inst = find_constants(gamma_stats(complete_graph(3)), 2)
        at_n0, grid = find_threshold(inst)
        assert at_n0 is not None
        assert check_lll_inequalities(inst, at_n0.n).holds
        assert not check_lll_inequalities(inst, at_n0.n - 1).holds
        assert grid[-1].holds and not grid[-2].holds

    @pytest.mark.parametrize("pattern, field_size", [("K3", 2), ("C5", 3)])
    def test_threshold_returns_the_report_at_n0(self, pattern, field_size):
        inst = find_constants(gamma_stats(named_graph(pattern)), field_size)
        at_n0, _ = find_threshold(inst)
        assert at_n0 == check_lll_inequalities(inst, at_n0.n)

    @pytest.mark.parametrize("max_exponent", [0, -1])
    def test_threshold_refuses_an_empty_grid(self, max_exponent):
        inst = find_constants(gamma_stats(complete_graph(3)), 2)
        with pytest.raises(
            ValueError, match=f"^max_exponent {max_exponent} leaves no grid point to check$"
        ):
            find_threshold(inst, max_exponent)

    def test_holds_monotone_on_grid(self):
        inst = find_constants(gamma_stats(cycle_graph(5)), 3)
        flags = [check_lll_inequalities(inst, 2**j).holds for j in range(1, 41)]
        assert flags == sorted(flags)  # False... then True...
        assert flags[-1]

    def test_weight_sum_closed_form_matches_direct_summation(self):
        inst = find_constants(gamma_stats(complete_graph(3)), 2)
        at_n0, _ = find_threshold(inst)
        report = check_lll_inequalities(inst, at_n0.n)
        lo, hi = report.sprime_min, at_n0.n**2
        assert hi - lo < 200_000  # near the threshold the range is summable
        with mpmath.workprec(150):
            gamma = mpmath.mpf(inst.stats.gamma.numerator) / inst.stats.gamma.denominator
            beta = (
                (mpmath.mpf(inst.c4.numerator) / inst.c4.denominator)
                - 24 * mpmath.mpf(inst.c1.numerator) / inst.c1.denominator
            ) * mpmath.power(at_n0.n, -gamma)
            direct = mpmath.nsum(lambda s: mpmath.exp(-beta * s), [lo, hi])
            assert abs(direct - report.weight_sum) < mpmath.mpf("1e-12")

    def test_k_positive_and_below_n_at_threshold(self):
        for name, q in [("K3", 2), ("K4", 3)]:
            inst = find_constants(gamma_stats(named_graph(name)), q)
            at_n0, _ = find_threshold(inst)
            report = check_lll_inequalities(inst, at_n0.n)
            assert 0 < report.k < at_n0.n

    def test_geometric_sum_helper_sanity(self):
        # the closed form used in the checker: independent Fraction check
        r = Fraction(1, 3)
        direct = geometric_sum_direct(r, 2, 9)
        closed = (r**2 - r**10) / (1 - r)
        assert direct == closed
