"""The brute-force monomial ideal oracle."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from functools import reduce
from itertools import combinations_with_replacement, product
from pathlib import Path

import numpy as np
import pytest

from edgesat import ideals
from edgesat.census import all_graphs, all_graphs_upto, oracle_ass
from edgesat.ideals import (
    _MAX_BYTES,
    _MAX_CELLS,
    MonomialIdeal,
    _axes,
    _box_size,
    _codes,
    _minimal_rows,
    _unique_rows,
    ass_primes_oracle,
    colon_maximal,
    colon_monomial,
    edge_ideal,
    membership,
    membership_box,
    membership_many,
    power,
    saturate,
)

from conftest import graph


G10 = [  # the 10-vertex, 19-edge graph of the golden CLI cases
    (1, 2), (1, 5), (1, 10), (2, 3), (2, 7), (2, 10), (3, 6), (3, 7), (4, 5), (4, 7),
    (4, 8), (5, 6), (5, 7), (5, 8), (5, 10), (6, 7), (7, 8), (8, 9), (8, 10),
]


def ideal(n: int, *gens) -> MonomialIdeal:
    return MonomialIdeal.from_gens(n, gens)


def _random_ideals(seed: int, count: int) -> list[MonomialIdeal]:
    """Seeded monomial ideals that are not edge ideals: n <= 4, exponents <= 3,
    with the unit ideal and ideals missing a variable (a box axis of size 1)."""
    rng = random.Random(seed)
    out = [ideal(3, (0, 0, 0)), ideal(2, (2, 0), (1, 1)), ideal(4, (1, 0, 3, 0), (0, 2, 1, 0))]
    for _ in range(count):
        n = rng.randint(1, 4)
        gens = [[rng.randint(0, 3) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:
            missing = rng.randrange(n)
            for row in gens:
                row[missing] = 0
        out.append(MonomialIdeal.from_gens(n, gens))
    return out


def _prime_cover(k: MonomialIdeal) -> frozenset[int] | None:
    """F when k is the prime generated by the variables indexed by F, else None."""
    if k.is_zero or not (k.gens.sum(axis=1) == 1).all():
        return None
    return frozenset(int(np.flatnonzero(row)[0]) + 1 for row in k.gens)


def intersect(j1: MonomialIdeal, j2: MonomialIdeal) -> MonomialIdeal:
    """Intersection via componentwise max over generator pairs, minimalised."""
    if j1.is_zero or j2.is_zero:
        return MonomialIdeal.from_gens(j1.n, [])
    rows = np.maximum(j1.gens[:, None, :], j2.gens[None, :, :]).reshape(-1, j1.n)
    return MonomialIdeal(j1.n, _minimal_rows(rows))


def _colon_by_variables(j: MonomialIdeal) -> MonomialIdeal:
    units = [tuple(int(i == k) for i in range(j.n)) for k in range(j.n)]
    return reduce(intersect, (colon_monomial(j, e) for e in units))


def _saturation_by_colons(j: MonomialIdeal) -> MonomialIdeal:
    """Reference: iterate K <- the intersection of the K : x_i to its fixpoint."""
    k = j
    while (nxt := _colon_by_variables(k)) != k:
        k = nxt
    return k


def _prime_colons(j: MonomialIdeal) -> list[frozenset[int]]:
    """Reference: the F with j : x^w = P_F for some w below the generators' lcm."""
    divisors = product(*(range(int(r) + 1) for r in j.gens.max(axis=0)))
    colons = (_prime_cover(colon_monomial(j, w)) for w in divisors)
    return sorted({f for f in colons if f is not None}, key=lambda f: (len(f), sorted(f)))


def _scaled(j: MonomialIdeal, k: int) -> MonomialIdeal:
    """j with each x_i replaced by x_i^k, a flat substitution: it keeps the
    associated primes, commutes with saturation, and scales the box."""
    return MonomialIdeal(j.n, j.gens * k)


def _divisibility_inputs(seed: int) -> list[np.ndarray]:
    """Seeded integer arrays with n = 1..5: mixed degrees, repeated rows, zero
    rows, empty arrays, and one input whose degree-15 class and the minimal
    rows below it both pass 2,048 rows, so both are compared in blocks."""
    rng = np.random.default_rng(seed)
    out = []
    for n in range(1, 6):
        for _ in range(60):
            arr = rng.integers(0, 4, size=(int(rng.integers(0, 25)), n))
            if arr.shape[0] and rng.random() < 0.4:
                arr = np.vstack([arr, arr[: int(rng.integers(1, arr.shape[0] + 1))]])
            if rng.random() < 0.2:
                arr = np.vstack([arr, np.zeros((1, n), dtype=arr.dtype)])
            out.append(arr.astype(np.int64))
    cube = np.array(list(product(range(10), repeat=5)), dtype=np.int64)
    layers = [cube[cube.sum(axis=1) == d] for d in (14, 15)] + [cube[cube.sum(axis=1) > 15]]
    out.append(np.vstack([layer[rng.choice(len(layer), 2500, replace=False)] for layer in layers]))
    return out


def _all_pairs_minimal(arr: np.ndarray) -> np.ndarray:
    """Reference: the distinct rows, in lexicographic order, that no other
    distinct row divides."""
    rows = np.array(sorted(set(map(tuple, arr.tolist()))), dtype=np.int64)
    rows = rows.reshape(-1, arr.shape[1])
    return rows[np.array([(rows <= r).all(axis=1).sum() == 1 for r in rows], dtype=bool)]


def _fixpoint_saturation(j: MonomialIdeal) -> MonomialIdeal:
    """Reference: iterate K <- K : m to its fixpoint."""
    k = j
    while (nxt := colon_maximal(k)) != k:
        k = nxt
    return k


def _all_pairs_antichain(arr: np.ndarray) -> bool:
    """Reference: no two rows are equal and none divides another."""
    return all((arr <= r).all(axis=1).sum() == 1 for r in arr)


def _power_by_gather(j: MonomialIdeal, t: int) -> MonomialIdeal:
    """Reference: the sum of every multiset of t generators, gathered as one
    C(m+t-1, t) x t x n tensor, then minimalised."""
    if t == 1 or j.is_zero:
        return j
    combos = np.array(list(combinations_with_replacement(range(len(j.gens)), t)), dtype=np.int64)
    return MonomialIdeal(j.n, _minimal_rows(j.gens[combos].sum(axis=1)))


def _huge_rows() -> np.ndarray:
    """Two-variable rows near 2**40, repeats and divisors among them: their box
    of the column maxima has more than 2**63 cells."""
    top = 2**40
    rows = [(top, 3), (top - 1, top), (5, top), (top, 3), (7, top - 2), (top, top), (0, top)]
    return np.array(rows, dtype=np.int64)


def _box_reference(j: MonomialIdeal, shape: tuple[int, ...]) -> np.ndarray:
    """Per-cell definition: w is in the table when some generator is <= w."""
    cells = [bool((j.gens <= np.array(w)).all(axis=1).any()) for w in np.ndindex(*shape)]
    return np.array(cells, dtype=bool).reshape(shape)


def _child_peak_on_g10_fourth_power(expr: str) -> tuple[int, int]:
    """Evaluate the integer `expr` on j = I^4 of G10 (a 5^10 table of 9.8 MB)
    in a child process; return it with the child's peak memory in bytes.  The
    child reports VmHWM, its own peak: ru_maxrss would carry this test
    process's peak across the exec."""
    child = (
        "import re\n"
        "from edgesat.graphs import SimpleGraph\n"
        "from edgesat.ideals import ass_primes_oracle, colon_maximal, edge_ideal, power\n"
        f"j = power(edge_ideal(SimpleGraph.from_edges(10, {G10})), 4)\n"
        f"value = {expr}\n"
        "status = open('/proc/self/status').read()\n"
        "print(value, re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=120
    )
    value, peak_kib = map(int, done.stdout.split())
    return value, peak_kib * 1024


class TestBasics:
    def test_edge_ideal_triangle(self, triangle):
        assert edge_ideal(triangle).to_lists() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_edge_ideal_single_edge(self):
        assert edge_ideal(graph(2, (1, 2))).to_lists() == [[1, 1]]

    def test_edge_ideal_edgeless(self):
        j = edge_ideal(graph(3))
        assert j.is_zero and j.to_lists() == []

    def test_minimalization(self):
        j = ideal(2, (1, 1), (2, 1), (0, 3))
        assert j.to_lists() == [[0, 3], [1, 1]]

    def test_power_triangle_square(self, triangle):
        j2 = power(edge_ideal(triangle), 2)
        assert j2.to_lists() == [
            [0, 2, 2], [1, 1, 2], [1, 2, 1], [2, 0, 2], [2, 1, 1], [2, 2, 0],
        ]

    def test_power_identity(self, tailed_triangle):
        j = edge_ideal(tailed_triangle)
        assert power(j, 1) == j

    def test_power_single_edge_cube(self):
        assert power(edge_ideal(graph(2, (1, 2))), 3).to_lists() == [[3, 3]]

    def test_constructor_refuses_a_non_antichain(self):
        # a divisor, then repeats within one degree: the only fault that sums of one degree can have
        for rows in ([[0, 3], [1, 1], [2, 1]], [[1, 1], [1, 1]], [[2, 0], [1, 1], [1, 1]]):
            with pytest.raises(ValueError, match="generators must form a minimal antichain"):
                MonomialIdeal(2, np.array(rows, dtype=np.int64))


class TestPower:
    """Distinct sums of generator cells against the gathered multiset sums."""

    IDEALS = _random_ideals(55, 150)

    def test_sample_reaches_the_edge_cases(self):
        assert any(j.is_unit for j in self.IDEALS)
        assert any((j.gens.max(axis=0) == 0).any() and not j.is_unit for j in self.IDEALS)
        assert any(len(set(j.gens.sum(axis=1).tolist())) > 1 for j in self.IDEALS)

    @staticmethod
    def _same(j: MonomialIdeal, t: int) -> None:
        got, want = power(j, t).gens, _power_by_gather(j, t).gens
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want), (j, t)

    def test_random_ideals_match_the_gather(self):
        for j in self.IDEALS:
            for t in range(1, 6):
                self._same(j, t)

    def test_edge_ideals_match_the_gather(self):
        for g in all_graphs_upto(5):
            if g.edges:
                j = edge_ideal(g)  # built in order, not minimalised: check it against that
                rows = [[int(v in e) for v in range(1, g.n + 1)] for e in g.edges]
                assert j == MonomialIdeal.from_gens(g.n, rows), g
                for t in range(1, 5):
                    self._same(j, t)

    def test_one_degree_is_minimalised_once_by_the_constructor(self, monkeypatch, pentagon):
        callers = []

        def counted(arr):
            callers.append(sys._getframe(1).f_code.co_name)
            return _minimal_rows(arr)

        j = edge_ideal(pentagon)
        monkeypatch.setattr(ideals, "_minimal_rows", counted)
        for t in (2, 3, 4):
            callers.clear()
            got = power(j, t)
            assert callers == ["_is_antichain"], t
            assert got == _power_by_gather(j, t)

    def test_mixed_degrees_are_minimalised(self):
        # x^2 y^3 = (x^2)(y^3) is a product of two generators, but x^2 y^2 = (xy)^2 divides it
        got = power(ideal(2, (2, 0), (1, 1), (0, 3)), 2)
        assert got.to_lists() == [[0, 6], [1, 4], [2, 2], [3, 1], [4, 0]]
        self._same(ideal(2, (2, 0), (1, 1), (0, 3)), 2)

    def test_cells_past_int64_are_python_ints(self):
        arr = _huge_rows()
        shape = tuple(int(r) + 1 for r in arr.max(axis=0))
        assert _codes(arr, shape)[0].dtype == object and _codes(arr % 4, (4, 4))[0].dtype == np.int64
        want = np.unique(arr, axis=0)
        got = _unique_rows(arr)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(_minimal_rows(arr), _all_pairs_minimal(arr))
        j = MonomialIdeal(2, _minimal_rows(arr))
        assert len(j.gens) > 2
        for t in (2, 3):
            self._same(j, t)

    @pytest.mark.parametrize("t", [2, 4])
    def test_refuses_exponents_past_int64(self, t):
        # the sums once wrapped silently: [[-2**63]] at t = 2, the unit ideal at t = 4
        with pytest.raises(ValueError, match="exponents must fit in a signed 64-bit integer"):
            power(MonomialIdeal.from_gens(1, [[2**62]]), t)

    def test_largest_int64_exponent_is_kept(self):
        top = (2**63 - 1) // 3
        assert power(MonomialIdeal.from_gens(2, [[top, 0], [0, 1]]), 3).to_lists() == [
            [0, 3], [top, 2], [2 * top, 1], [3 * top, 0],
        ]


class TestMembership:
    def test_triangle(self, triangle):
        j = edge_ideal(triangle)
        assert membership(j, (1, 1, 0))
        assert not membership(j, (1, 0, 0))
        assert not membership(power(j, 2), (1, 1, 1))

    def test_membership_many_matches_scalar(self, tailed_triangle):
        """Both against the definition: some generator is <= x^a entrywise."""
        rng = random.Random(23)
        j2 = power(edge_ideal(tailed_triangle), 2)
        zeros = [MonomialIdeal.from_gens(n, []) for n in range(1, 5)]
        cases = [(j2, list(product(range(3), repeat=5)))] + [
            (j, [tuple(rng.randint(0, 4) for _ in range(j.n)) for _ in range(12)])
            for j in _random_ideals(53, 120) + zeros
        ]
        for j, vecs in cases:
            want = [any(all(g <= x for g, x in zip(row, a)) for row in j.to_lists()) for a in vecs]
            assert membership_many(j, np.array(vecs, dtype=np.int64)).tolist() == want, j
            got = [membership(j, a) for a in vecs]
            assert got == want and all(type(x) is bool for x in got), j


class TestInputChecks:
    """Exponent vectors of the wrong length or with a negative entry are
    refused with the matching side's messages, not broadcast."""

    @pytest.mark.parametrize("bad, message", [
        ([1], "exponent vector has length 1, expected 3"),
        ([1, 1, 1, 1], "exponent vector has length 4, expected 3"),
        ([1, -1, 1], "exponents must be non-negative"),
    ])
    def test_membership_and_colon(self, triangle, bad, message):
        j = edge_ideal(triangle)
        with pytest.raises(ValueError, match=message):
            membership(j, bad)
        with pytest.raises(ValueError, match=message):
            colon_monomial(j, bad)
        with pytest.raises(ValueError, match=message):
            membership_many(j, np.array([bad, bad], dtype=np.int64))
        with pytest.raises(ValueError, match=message):
            membership_box(j, tuple(bad))
        with pytest.raises(ValueError, match=message):  # the zero ideal is checked too
            membership(MonomialIdeal.from_gens(3, []), bad)

    def test_membership_many_needs_a_matrix(self, triangle):
        j = edge_ideal(triangle)
        with pytest.raises(ValueError, match="rows of a matrix"):
            membership_many(j, np.array([1, 1, 0], dtype=np.int64))
        assert membership_many(j, np.zeros((0, 3), dtype=np.int64)).shape == (0,)


class TestColonAndSaturation:
    def test_colon_witness_gives_maximal(self, triangle):
        j2 = power(edge_ideal(triangle), 2)
        assert colon_monomial(j2, (1, 1, 1)).to_lists() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]

    def test_colon_by_one(self, tailed_triangle):
        j = edge_ideal(tailed_triangle)
        assert colon_monomial(j, (0, 0, 0, 0, 0)) == j

    def test_colon_single_edge(self):
        assert colon_monomial(edge_ideal(graph(2, (1, 2))), (1, 0)).to_lists() == [[0, 1]]

    def test_saturate_triangle_square(self, triangle):
        j2 = power(edge_ideal(triangle), 2)
        assert saturate(j2).to_lists() == [[0, 2, 2], [1, 1, 1], [2, 0, 2], [2, 2, 0]]

    def test_saturate_primes(self):
        proper = ideal(3, (1, 0, 0), (0, 1, 0))
        assert saturate(proper) == proper
        maximal = ideal(3, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert saturate(maximal).is_unit

    def test_saturate_zero(self):
        z = MonomialIdeal.from_gens(3, [])
        assert saturate(z).is_zero

    def test_saturate_idempotent_and_grows(self, tailed_triangle):
        for t in (1, 2, 3):
            j = power(edge_ideal(tailed_triangle), t)
            s = saturate(j)
            assert saturate(s) == s
            assert all(membership(s, tuple(row)) for row in j.gens)

    def test_colon_maximal_equals_intersection_of_colons(self):
        rng = random.Random(9)
        graphs = rng.sample([g for g in all_graphs(4) if g.edges], 12)
        powers = [power(edge_ideal(g), t) for g in graphs for t in (1, 2)]
        for j in powers + _random_ideals(51, 200):
            assert colon_maximal(j) == _colon_by_variables(j), j

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_colon_maximal_memory_bounded_by_the_table(self):
        # one table and its colon, not n shifted copies: allowed 4x plus 100 MB
        gens, peak = _child_peak_on_g10_fourth_power("len(colon_maximal(j).gens)")
        assert gens == 3327
        assert peak <= 4 * 5**10 + 100 * 10**6


class TestAssPrimesOracle:
    def test_triangle_radical(self, triangle):
        assert ass_primes_oracle(edge_ideal(triangle)) == [{1, 2}, {1, 3}, {2, 3}]

    def test_triangle_square_adds_maximal(self, triangle):
        got = ass_primes_oracle(power(edge_ideal(triangle), 2))
        assert got == [{1, 2}, {1, 3}, {2, 3}, {1, 2, 3}]

    def test_tailed_triangle_square(self, tailed_triangle):
        got = set(ass_primes_oracle(power(edge_ideal(tailed_triangle), 2)))
        assert frozenset({1, 2, 3, 4}) in got
        assert frozenset({1, 2, 3, 4, 5}) not in got

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ass_primes_oracle(MonomialIdeal.from_gens(2, []))

    def test_no_variables_refused(self):
        with pytest.raises(ValueError) as caught:
            ass_primes_oracle(MonomialIdeal.from_gens(0, [[]]))
        assert str(caught.value) == "ass_primes_oracle needs at least one variable"

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_memory_bounded_by_the_table(self):
        primes, peak = _child_peak_on_g10_fourth_power("len(ass_primes_oracle(j))")
        assert primes == 23
        assert peak <= 4 * 5**10 + 100 * 10**6

    def test_table_past_its_budget_refused_before_it_is_built(self):
        # a 2**40 + 1 cell table would need 128 GB; G10's (t+1)^10 box first passes it at t = 7
        assert 7**10 <= _MAX_CELLS < 8**10
        huge = MonomialIdeal.from_gens(1, [[2**40]])
        for query in (saturate, colon_maximal, ass_primes_oracle):
            with pytest.raises(ValueError, match="past its budget of 536870912 cells"):
                query(huge)
        with pytest.raises(ValueError, match="past its budget"):
            membership_box(edge_ideal(graph(3, (1, 2))), (1024, 1024, 1024))

    def test_axis_masks_past_their_budget_refused_from_the_shape(self, monkeypatch):
        # 2**29 cells is within the cell budget, but over 29 axes of length 2 the
        # masks of _axes would add 29 * 64 MB; only the shape is read, nothing built
        assert _box_size((7,) * 10) == 7**10  # G10's box at t = 6, about 805 MB
        # at _MAX_CELLS (half of _MAX_BYTES), three long axes fit (1.975 bytes a cell)
        # and four do not (2.1); axes of length 1 keep no mask
        assert _box_size((1 << 27, 2, 2) + (1,) * 60) == 1 << 29 == _MAX_CELLS == _MAX_BYTES // 2
        for refuse in (_box_size, _axes):
            for shape in ((2,) * 29, (1 << 26, 2, 2, 2)):
                with pytest.raises(ValueError, match=f"cells with axis masks is past {_MAX_BYTES} "):
                    refuse(shape)

        def unreachable(j, t):
            raise AssertionError("power was called")

        monkeypatch.setattr(ideals, "power", unreachable)
        path = graph(29, *[(i, i + 1) for i in range(1, 29)])
        with pytest.raises(ValueError, match=f"oracle table of {1 << 29} cells with axis masks"):
            oracle_ass(path, 1)

    def test_oracle_ass_edgeless(self):
        assert oracle_ass(graph(3), 2) == {frozenset()}

    def test_oracle_ass_refuses_the_box_before_power(self, monkeypatch):
        # the lcm box of I^7 of G10 has 8^10 cells, known from the graph alone
        def unreachable(j, t):
            raise AssertionError("power was called")

        monkeypatch.setattr(ideals, "power", unreachable)
        with pytest.raises(ValueError, match=f"oracle table of {8**10} cells is past its budget"):
            oracle_ass(graph(10, *G10), 7)

    def test_oracle_ass_checks_the_lcm(self, monkeypatch, tailed_triangle):
        real = ideals.power
        monkeypatch.setattr(ideals, "power", lambda j, t: real(j, t - 1))
        with pytest.raises(RuntimeError, match="lcm of the generators of I\\^t must carry exponent t"):
            oracle_ass(tailed_triangle, 3)

    def test_primes_decoded_for_any_n(self, triangle):
        # in 3 of 70 variables, 67 axes of the table have length 1: a prime's
        # code has one bit per longer axis, so it fits whatever n is
        at = (5, 33, 70)
        mixed = ideal(3, (3, 0, 0), (1, 2, 0), (0, 1, 2), (2, 0, 1))
        for j3 in (power(edge_ideal(triangle), 2), mixed):
            gens = np.zeros((len(j3.gens), 70), dtype=np.int64)
            gens[:, [v - 1 for v in at]] = j3.gens
            j = MonomialIdeal(70, gens)
            want = [frozenset(at[i - 1] for i in f) for f in ass_primes_oracle(j3)]
            assert len(want) > 1 and ass_primes_oracle(j) == want, j3
            assert ass_primes_oracle(j) == _prime_colons(j), j3


class TestGeneratorLevelDefinitions:
    """The box-table oracle against colons and intersections of generators."""

    IDEALS = _random_ideals(51, 200)

    def test_sample_reaches_the_edge_cases(self):
        assert any(j.is_unit for j in self.IDEALS)
        assert any((j.gens.max(axis=0) == 0).any() and not j.is_unit for j in self.IDEALS)
        assert any(len(ass_primes_oracle(j)) > 1 for j in self.IDEALS)

    def test_ass_primes_are_the_prime_colons(self):
        for j in self.IDEALS:
            assert ass_primes_oracle(j) == _prime_colons(j), j

    def test_saturate_is_the_fixpoint_of_colon_maximal(self):
        zeros = [MonomialIdeal.from_gens(n, []) for n in range(1, 5)]
        units = [ideal(n, (0,) * n) for n in range(1, 5)]
        sample = self.IDEALS + _random_ideals(54, 300) + zeros + units
        for j in [power(edge_ideal(g), t) for g in all_graphs_upto(5) for t in range(1, 5)] + sample:
            assert saturate(j) == _fixpoint_saturation(j), j

    def test_saturate_refuses_no_variables(self):
        with pytest.raises(ValueError, match="at least one variable") as caught:
            saturate(MonomialIdeal.from_gens(0, [()]))
        assert str(caught.value) == "saturate needs at least one variable"
        with pytest.raises(ValueError, match="at least one variable") as caught:
            colon_maximal(MonomialIdeal.from_gens(0, [()]))
        assert str(caught.value) == "colon_maximal needs at least one variable"

    def test_saturate_is_the_fixpoint_of_that_intersection(self):
        for j in self.IDEALS:
            assert saturate(j) == _saturation_by_colons(j), j


class TestInvariants:
    def test_antichain_preserved(self, tailed_triangle):
        j = edge_ideal(tailed_triangle)
        for k in (j, power(j, 2), power(j, 3), saturate(power(j, 2)),
                  colon_monomial(power(j, 2), (1, 0, 1, 0, 0)), colon_maximal(power(j, 3))):
            assert k._is_antichain()

    def test_colon_contains_ideal(self, tailed_triangle):
        j2 = power(edge_ideal(tailed_triangle), 2)
        for w in ((1, 0, 0, 0, 0), (1, 1, 1, 0, 0), (2, 2, 0, 0, 1)):
            k = colon_monomial(j2, w)
            assert all(membership(k, tuple(row)) for row in j2.gens)


class TestKernels:
    """The degree-ordered minimalisation and the packed table, one int shifted
    along each axis, against their definitions."""

    INPUTS = _divisibility_inputs(8)

    def test_inputs_reach_the_edge_cases(self):
        big = np.unique(self.INPUTS[-1], axis=0)
        deg = big.sum(axis=1)
        assert (deg == 15).sum() > 2048 and len(_all_pairs_minimal(big[deg < 15])) > 2048
        assert any(a.shape[0] == 0 for a in self.INPUTS)
        assert any(len(np.unique(a, axis=0)) < a.shape[0] for a in self.INPUTS)
        assert any(not a.any(axis=1).all() for a in self.INPUTS if a.shape[0] > 1)

    def test_minimal_rows_matches_all_pairs(self):
        for arr in self.INPUTS:
            got = _minimal_rows(arr)
            assert got.dtype == np.int64
            assert np.array_equal(got, _all_pairs_minimal(arr)), arr.shape

    def test_rows_come_out_in_numpy_unique_order(self):
        bools = [a > 1 for a in self.INPUTS[:100]]
        no_columns = [np.zeros((k, 0), dtype=np.int64) for k in range(3)]
        for arr in self.INPUTS + bools + no_columns:
            want = np.unique(arr, axis=0)
            got = _unique_rows(arr)
            assert got.dtype == want.dtype and np.array_equal(got, want), arr.shape
            if arr.dtype == np.int64 and arr.shape[1]:
                kept = np.array([(want <= r).all(axis=1).sum() == 1 for r in want], dtype=bool)
                assert np.array_equal(_minimal_rows(arr), want[kept])

    def test_antichain_verdict_matches_all_pairs(self):
        verdicts = []
        for arr in self.INPUTS:
            for cand in (arr, _minimal_rows(arr)):
                expected = _all_pairs_antichain(cand)
                verdicts.append(expected)
                if expected:
                    assert MonomialIdeal(cand.shape[1], cand)._is_antichain()
                else:
                    with pytest.raises(ValueError, match="minimal antichain"):
                        MonomialIdeal(cand.shape[1], cand)
        assert True in verdicts and False in verdicts

    def test_membership_box_matches_cells(self):
        rng = random.Random(17)
        for j in _random_ideals(52, 150):
            top = j.gens.max(axis=0, initial=0)
            truncated = tuple(rng.randint(0, int(r)) for r in top)
            random_shape = tuple(rng.randint(0, 5) for _ in range(j.n))
            for shape in (truncated, random_shape, tuple(int(r) + 2 for r in top)):
                got = membership_box(j, shape)
                assert np.array_equal(got, _box_reference(j, shape)), (j, shape)

    def test_membership_box_zero_unit_and_outside(self):
        outside = ideal(2, (5, 0), (1, 2), (0, 4))
        unit, zero = ideal(3, (0, 0, 0)), MonomialIdeal.from_gens(3, [])
        for j, shape in ((outside, (3, 3)), (outside, (6, 5)), (unit, (2, 3, 1)),
                         (unit, (2, 0, 3)), (zero, (2, 3, 1)), (zero, (1, 1, 1))):
            assert np.array_equal(membership_box(j, shape), _box_reference(j, shape)), (j, shape)
        assert membership_box(unit, (2, 3, 1)).all() and not membership_box(zero, (2, 3, 1)).any()

    # (j, shape) at the edges of the packed table's geometry
    GEOMETRY = [
        (ideal(3, (1, 0, 2), (0, 2, 1)), (2, 0, 3)),  # an axis of length 0
        (ideal(3, (1, 0, 2), (0, 2, 1)), (0, 0, 0)),
        (ideal(1, (3,)), (4,)),  # n = 1
        (ideal(1, (3,)), (7,)),
        (ideal(1, (0,)), (1,)),
        (ideal(4, (2, 0, 1, 0), (0, 0, 3, 0)), (3, 1, 4, 1)),  # axes of length 1, 12 cells
        (ideal(3, (2, 1, 0), (0, 3, 4)), (3, 5, 7)),  # 105 cells
        (ideal(3, (0, 0, 0)), (1, 1, 1)),  # the unit ideal
        (ideal(3, (0, 0, 0)), (2, 3, 1)),
        (MonomialIdeal.from_gens(3, []), (1, 1, 1)),  # the zero ideal
        (MonomialIdeal.from_gens(2, []), (3, 5)),
    ]

    def test_geometry_reaches_the_edge_cases(self):
        sizes = [int(np.prod(shape)) for _, shape in self.GEOMETRY]
        assert 0 in sizes and any(size % 8 for size in sizes)
        assert any(j.n == 1 for j, _ in self.GEOMETRY)
        assert any(1 in shape and 0 not in shape for _, shape in self.GEOMETRY)

    def test_table_geometry(self):
        for j, shape in self.GEOMETRY:
            got = membership_box(j, shape)
            assert got.shape == shape and np.array_equal(got, _box_reference(j, shape)), (j, shape)
            assert saturate(j) == _saturation_by_colons(j), j
            assert colon_maximal(j) == _colon_by_variables(j), j
            if not j.is_zero:
                assert ass_primes_oracle(j) == _prime_colons(j), j

    def test_each_query_builds_the_axis_masks_once(self, monkeypatch):
        # the table, the spread or colon, and the minimal cells all read one
        # list of masks, built after _box_size accepts the box
        real, shapes = ideals._axes, []

        def counted(shape):
            shapes.append(shape)
            return real(shape)

        monkeypatch.setattr(ideals, "_axes", counted)
        j = power(edge_ideal(graph(7, *[(i, i % 7 + 1) for i in range(1, 8)], (1, 4))), 3)
        for query in (saturate, colon_maximal, ass_primes_oracle):
            shapes.clear()
            query(j)
            assert shapes == [(4,) * 7], query.__name__

    def test_table_past_a_million_cells(self):
        # j with x_i -> x_i^11 spans a 34^4 box (1,336,336 cells); the box of
        # 35 x 31 x 33 x 31 cells (1,109,955) is not a whole number of bytes
        j = ideal(4, (0, 0, 3, 3), (1, 3, 0, 2), (2, 0, 3, 0), (2, 1, 0, 3), (3, 1, 1, 2))
        big = _scaled(j, 11)
        assert big.gens.max(axis=0).tolist() == [33, 33, 33, 33]
        for shape in ((34,) * 4, (35, 31, 33, 31)):
            cells = np.indices(shape).reshape(4, -1).T
            want = membership_many(big, cells).reshape(shape)
            assert np.array_equal(membership_box(big, shape), want), shape
        assert saturate(big) == _scaled(_saturation_by_colons(j), 11)
        assert colon_maximal(big) == _colon_by_variables(big)
        assert ass_primes_oracle(big) == _prime_colons(j)
        assert len(_prime_colons(j)) > 1 and saturate(j) != j
