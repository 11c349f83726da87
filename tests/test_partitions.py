import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylogvar import partitions
from polylogvar.errors import DomainError
from polylogvar.partitions import (SetPartition, _codes, _family_table,
                                   bell_number, partitions_of, paving_check,
                                   postnikov_graded_check,
                                   stirling_first_unsigned)

from oracles import ref_paving_cover


class TestPartitions:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 5), (4, 15)])
    def test_counts(self, n, count):
        assert len(partitions_of(n)) == count

    @pytest.mark.parametrize("n", range(1, 8))
    def test_counts_match_bell(self, n):
        assert len(partitions_of(n)) == bell_number(n)

    def test_canonical_block_order(self):
        for p in partitions_of(4):
            mins = [min(b) for b in p.blocks]
            assert mins == sorted(mins)
            for b in p.blocks:
                assert list(b) == sorted(b)

    def test_refinement(self):
        fine = SetPartition(((1,), (2,), (3, 4)))
        coarse = SetPartition(((1, 2), (3, 4)))
        assert fine.refines(coarse)
        assert not coarse.refines(fine)

    def test_validation(self):
        with pytest.raises(ValueError):
            SetPartition(((1, 2), (2, 3)))
        with pytest.raises(ValueError):
            SetPartition(((1, 3),))

    def test_size_guard(self):
        with pytest.raises(DomainError):
            partitions_of(10)


class TestStirling:
    def test_small_values(self):
        assert stirling_first_unsigned(3, 2) == 3
        assert stirling_first_unsigned(4, 2) == 11
        assert stirling_first_unsigned(4, 4) == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_row_sum_is_factorial(self, n):
        assert sum(stirling_first_unsigned(n, k)
                   for k in range(n + 1)) == math.factorial(n)


class TestPostnikov:
    def test_weight_three(self):
        rep = postnikov_graded_check(3)
        assert rep.passed
        table = {k: (s, c) for k, s, c in rep.table}
        assert table[1] == (3, 3)  # three 2-block partitions, each worth 1
        assert table[0] == (1, 1)

    def test_weight_four_k2(self):
        rep = postnikov_graded_check(4)
        table = {k: (s, c) for k, s, c in rep.table}
        # type (3,1) gives 4 * 2, type (2,2) gives 3 * 1
        assert table[2] == (11, 11)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_identity_holds(self, n):
        rep = postnikov_graded_check(n)
        assert rep.passed
        assert rep.total_matches_factorial

    def test_size_guard(self):
        with pytest.raises(DomainError):
            postnikov_graded_check(9)


class TestPaving:
    def test_square(self):
        rep = paving_check(2, 0.5, 10_000, seed=1)
        assert rep.passed
        assert rep.min_cover == rep.max_cover == 1
        assert rep.volume_identity_ok

    def test_interval_trivial(self):
        rep = paving_check(1, 0.5, 100, seed=0)
        assert rep.passed

    def test_duplicate_family_fails(self):
        fam = list(itertools.permutations(range(1, 3)))
        fam[1] = fam[0]  # one simplex listed twice, another missing
        rep = paving_check(2, 0.5, 1000, seed=0, family=fam)
        assert not rep.passed
        assert rep.max_cover == 2 or rep.min_cover == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_missing_simplex_fails_volume_identity(self, n):
        fam = list(itertools.permutations(range(1, n + 1)))[1:]
        rep = paving_check(n, 0.5, 1000, seed=0, family=fam)
        assert not rep.volume_identity_ok
        assert not rep.passed

    def test_deterministic(self):
        a = paving_check(3, 0.5, 5000, seed=42)
        b = paving_check(3, 0.5, 5000, seed=42)
        assert a == b

    def test_domain(self):
        with pytest.raises(DomainError):
            paving_check(7, 0.5, 10, seed=0)
        with pytest.raises(DomainError):
            paving_check(2, 1.5, 10, seed=0)

    def test_negative_seed_is_domain_error(self):
        with pytest.raises(DomainError):
            paving_check(2, 0.5, 10, seed=-1)

    def test_boundary_points_are_redrawn(self, monkeypatch):
        # the first draw puts every point on the face x = 1; the redraw is
        # the first draw of a genuine stream
        real = partitions._uniforms
        calls = []

        def first_on_face(rng, count):
            calls.append(count)
            u = real(rng, count)
            return np.zeros_like(u) if len(calls) == 1 else u

        monkeypatch.setattr(partitions, "_uniforms", first_on_face)
        rep = paving_check(3, 0.5, 500, seed=0)
        assert calls == [1500, 1500]
        assert rep.redraws == 500
        assert rep.passed and rep.min_cover == rep.max_cover == 1

    def test_endless_ties_are_domain_error(self, monkeypatch):
        monkeypatch.setattr(partitions, "_uniforms",
                            lambda rng, count: np.full(count, 0.5))
        with pytest.raises(DomainError):
            paving_check(2, 0.5, 10, seed=0)

    @pytest.mark.parametrize("bad", [(1, 1, 3), (1, 2), (1, 2, 3, 4),
                                     (0, 1, 2), (1, 2, 4)])
    def test_non_permutation_entry_is_domain_error(self, bad):
        fam = list(itertools.permutations(range(1, 4)))
        fam[fam.index((2, 1, 3))] = bad
        with pytest.raises(DomainError):
            paving_check(3, 0.5, 1000, seed=0, family=fam)


@st.composite
def _families(draw):
    """n <= 4 and a multiset over S_n, with duplicates and gaps."""
    n = draw(st.integers(1, 4))
    perms = list(itertools.permutations(range(1, n + 1)))
    fam = draw(st.lists(st.sampled_from(perms), max_size=2 * len(perms)))
    return n, perms, fam


class TestPavingCover:
    @settings(max_examples=40, deadline=None)
    @given(_families(), st.floats(0.05, 0.95), st.integers(0, 2 ** 31 - 1))
    def test_reports_family_multiplicities(self, case, z, seed):
        # 20000 samples miss some s in S_4 with probability below 1e-360
        n, perms, fam = case
        mu = Counter(fam)
        rep = paving_check(n, z, 20000, seed, family=fam)
        assert rep.min_cover == min(mu[s] for s in perms)
        assert rep.max_cover == max(mu[s] for s in perms)
        assert rep.passed == all(mu[s] == 1 for s in perms)
        assert rep.volume_identity_ok == (len(fam) == len(perms))

    @settings(max_examples=60, deadline=None)
    @given(_families(), st.data())
    def test_argsort_lookup_matches_direct_count(self, case, data):
        n, perms, fam = case
        coords = st.floats(1.0, 2.0, exclude_min=True, exclude_max=True)
        rows = data.draw(st.lists(
            st.lists(coords, min_size=n, max_size=n, unique=True),
            min_size=1, max_size=20))
        pts = np.array(rows)
        got = _family_table(fam, n)[_codes(np.argsort(pts, axis=1))]
        assert got.tolist() == ref_paving_cover(pts, 1.0, 2.0, fam).tolist()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_order_is_covered_once(self, n):
        # one point per simplex: coordinate s^{-1}(r) gets the r-th value
        perms = list(itertools.permutations(range(1, n + 1)))
        pts = np.empty((len(perms), n))
        for row, s in enumerate(perms):
            for pos, v in enumerate(s):
                pts[row, pos] = 1.0 + v / (n + 1)
        direct = ref_paving_cover(pts, 1.0, 2.0, perms)
        assert direct.tolist() == [1] * len(perms)
        got = _family_table(perms, n)[_codes(np.argsort(pts, axis=1))]
        assert got.tolist() == direct.tolist()
