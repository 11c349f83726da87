import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylogvar import partitions
from polylogvar.errors import DomainError
from polylogvar.partitions import (SetPartition, _family_table, _rank_codes,
                                   bell_number, partitions_of, paving_check,
                                   postnikov_graded_check,
                                   stirling_first_unsigned)

from oracles import ref_paving_cover, ref_paving_report, ref_rank_code


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

    def test_tied_rows_are_redrawn(self, monkeypatch):
        # the first draw ties every row; the redraw is the first draw of a
        # genuine stream.  (A point is never on the boundary: each k_i
        # stands for a real strictly inside (1, 1/z).)
        calls = []
        monkeypatch.setattr(partitions, "_words", _first_draw_tied(calls))
        rep = paving_check(3, 0.5, 500, seed=0)
        assert calls == [1500, 1500]
        assert rep.redraws == 500
        assert rep.passed and rep.min_cover == rep.max_cover == 1

    def test_endless_ties_are_domain_error(self, monkeypatch):
        monkeypatch.setattr(partitions, "_words",
                            lambda rng, count: bytes(4 * count))
        with pytest.raises(DomainError):
            paving_check(2, 0.5, 10, seed=0)

    @pytest.mark.parametrize("bad", [(1, 1, 3), (1, 2), (1, 2, 3, 4),
                                     (0, 1, 2), (1, 2, 4)])
    def test_non_permutation_entry_is_domain_error(self, bad):
        fam = list(itertools.permutations(range(1, 4)))
        fam[fam.index((2, 1, 3))] = bad
        with pytest.raises(DomainError):
            paving_check(3, 0.5, 1000, seed=0, family=fam)


def _first_draw_tied(calls):
    """A ``_words`` that records each count and returns words of 0, so every
    coordinate of every row ties, on its first call, having consumed the
    stream as usual."""
    real = partitions._words

    def first_tied(rng, count):
        calls.append(count)
        words = real(rng, count)
        return bytes(len(words)) if len(calls) == 1 else words
    return first_tied


def _block(rows, low_bits):
    """Little-endian 32-bit words, row by row, with top 31 bits k and the
    dropped low bit taken in turn from ``low_bits``."""
    words = [k for row in rows for k in row]
    return b"".join((2 * k + low_bits[i % len(low_bits)]).to_bytes(4, "little")
                    for i, k in enumerate(words))


# drawn rows are tiled to these block sizes: one row, a short block and a
# full one
_BLOCK_SIZES = [1, 7, partitions._BLOCK_ROWS]
# few distinct values, the extremes 0 and 2^31 - 1 among them, so ties are
# common and a field borrow would show
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
    def test_rank_code_lookup_matches_direct_count(self, case, data):
        n, perms, fam = case
        coords = st.integers(0, 2 ** 31 - 1) | _FEW_VALUES
        drawn = data.draw(st.lists(
            st.lists(coords, min_size=n, max_size=n, unique=True),
            min_size=1, max_size=20))
        table = _family_table(fam, n)
        for size in _BLOCK_SIZES:
            rows = [drawn[r % len(drawn)] for r in range(size)]
            codes, bad = _rank_codes(_block(rows, [1, 0, 0]), n)
            assert bad == 0
            direct = ref_paving_cover(np.array(rows), -1, 2 ** 31, fam)
            assert [table[c] for c in codes] == direct.tolist()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_rank_codes_match_per_row_ranks(self, n, data):
        drawn = data.draw(st.lists(st.lists(_FEW_VALUES, min_size=n,
                                            max_size=n),
                                   min_size=1, max_size=20))
        low_bits = data.draw(st.lists(st.integers(0, 1), min_size=1))
        for size in _BLOCK_SIZES:
            rows = [drawn[r % len(drawn)] for r in range(size)]
            codes, bad = _rank_codes(_block(rows, low_bits), n)
            want = [ref_rank_code(row) for row in rows]
            assert bad == want.count(None)
            assert [None if c >> 31 else c for c in codes] == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_order_is_covered_once(self, n):
        # one point per simplex: coordinate i gets k = s(i)
        perms = list(itertools.permutations(range(1, n + 1)))
        direct = ref_paving_cover(np.array(perms), -1, 2 ** 31, perms)
        assert direct.tolist() == [1] * len(perms)
        codes, bad = _rank_codes(_block(perms, [0]), n)
        assert bad == 0
        table = _family_table(perms, n)
        assert [table[c] for c in codes] == direct.tolist()


class TestPavingStream:
    @pytest.mark.parametrize("block", [partitions._BLOCK_ROWS, 7])
    @pytest.mark.parametrize("tied", [False, True])
    @settings(max_examples=25, deadline=None)
    @given(case=_families(max_n=5), whole=st.booleans(),
           z=st.floats(0.05, 0.95), seed=st.integers(0, 2 ** 32 - 1),
           samples=st.integers(1, 600))
    def test_matches_the_whole_stream_oracle(self, block, tied, case, whole,
                                             z, seed, samples):
        """Blocks of any size draw the same points, redraws included, as
        one draw of the whole first pass; the patch ties every row of the
        first block, which forces the redraws."""
        n, _, fam = case
        family = None if whole else fam
        want = ref_paving_report(n, z, samples, seed, family,
                                 tied_rows=min(block, samples) if tied else 0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(partitions, "_BLOCK_ROWS", block)
            if tied:
                patch.setattr(partitions, "_words", _first_draw_tied([]))
            got = paving_check(n, z, samples, seed, family=family)
        assert got._asdict() == want

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
