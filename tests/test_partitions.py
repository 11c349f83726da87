import itertools
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylogvar.errors import DomainError
from polylogvar.partitions import (SetPartition, _family_table,
                                   bell_number, partitions_of, paving_check,
                                   postnikov_graded_check,
                                   stirling_first_unsigned)

from oracles import ref_paving_cover, ref_paving_report, ref_rank_permutation


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
        """The last permutation replaced by a copy of the first: one simplex
        listed twice, another missing, at every n, however few the samples
        (100 draws at n = 6 all miss both simplices with probability about
        0.76)."""
        for n in range(2, 7):
            fam = list(itertools.permutations(range(1, n + 1)))
            fam[-1] = fam[0]
            rep = paving_check(n, 0.5, 100, seed=0, family=fam)
            assert not rep.passed and rep.volume_identity_ok, n
            assert (rep.min_cover, rep.max_cover) == (0, 2), n

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

    @pytest.mark.parametrize("bad", [(1, 1, 3), (1, 2), (1, 2, 3, 4),
                                     (0, 1, 2), (1, 2, 4)])
    def test_non_permutation_entry_is_domain_error(self, bad):
        fam = list(itertools.permutations(range(1, 4)))
        fam[fam.index((2, 1, 3))] = bad
        with pytest.raises(DomainError):
            paving_check(3, 0.5, 1000, seed=0, family=fam)


# a few values, the extremes 0 and 2^31 - 1 among them
_FEW_VALUES = st.sampled_from([0, 1, 2, 2 ** 30, 2 ** 31 - 2, 2 ** 31 - 1])


@st.composite
def _families(draw, max_n=4):
    """n <= max_n and a multiset over S_n, with duplicates and gaps."""
    n = draw(st.integers(1, max_n))
    perms = list(itertools.permutations(range(1, n + 1)))
    fam = draw(st.lists(st.sampled_from(perms), max_size=2 * len(perms)))
    return n, perms, fam


class TestPavingCover:
    @settings(max_examples=40, deadline=None)
    @given(_families(), st.floats(0.05, 0.95), st.integers(0, 2 ** 31 - 1),
           st.integers(1, 200))
    def test_reports_family_multiplicities(self, case, z, seed, samples):
        n, perms, fam = case
        mu = Counter(fam)
        rep = paving_check(n, z, samples, seed, family=fam)
        assert rep.min_cover == min(mu[s] for s in perms)
        assert rep.max_cover == max(mu[s] for s in perms)
        assert rep.passed == all(mu[s] == 1 for s in perms)
        assert rep.volume_identity_ok == (len(fam) == len(perms))

    @settings(max_examples=60, deadline=None)
    @given(_families(), st.data())
    def test_cover_is_the_multiplicity_of_the_rank_order(self, case, data):
        """The lemma of ``paving_check``: a tie-free point is covered as
        often as its rank permutation occurs in the family."""
        n, perms, fam = case
        coords = st.integers(0, 2 ** 31 - 1) | _FEW_VALUES
        rows = data.draw(st.lists(
            st.lists(coords, min_size=n, max_size=n, unique=True),
            min_size=1, max_size=20))
        table = _family_table(fam, n)
        direct = ref_paving_cover(np.array(rows), -1, 2 ** 31, fam)
        assert [table[ref_rank_permutation(row)] for row in rows] == \
            direct.tolist()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_order_is_covered_once(self, n):
        # one point per simplex: coordinate i gets k = s(i)
        perms = list(itertools.permutations(range(1, n + 1)))
        direct = ref_paving_cover(np.array(perms), -1, 2 ** 31, perms)
        assert direct.tolist() == [1] * len(perms)
        table = _family_table(perms, n)
        assert [table[ref_rank_permutation(s)] for s in perms] == \
            direct.tolist()


class TestPavingStream:
    """``samples`` and ``seed`` are checked and echoed; no point is drawn."""

    def test_paving_draws_no_points(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("paving_check drew a random number")
        monkeypatch.setattr(random.Random, "randbytes", no_draw)
        monkeypatch.setattr(random.Random, "getrandbits", no_draw)
        for n in range(1, 7):
            few = paving_check(n, 0.5, 1, 0)
            many = paving_check(n, 0.5, 10 ** 6, 2 ** 31 - 1)
            assert few.passed and many.passed, n
            assert few._replace(samples=10 ** 6) == many, n
            assert few._asdict() == ref_paving_report(n, 1), n
            fam = list(itertools.permutations(range(1, n + 1)))[1:] * 2
            assert paving_check(n, 0.3, 7, 5, family=fam)._asdict() == \
                ref_paving_report(n, 7, fam), n

    def test_memory_does_not_grow_with_samples(self):
        paving_check(6, 0.5, 10, 0)
        peaks = []
        for samples in (20_000, 200_000):
            tracemalloc.start()
            try:
                paving_check(6, 0.5, samples, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 4 * 10 ** 6, peaks
        assert peaks[1] - peaks[0] < 10 ** 6, peaks
