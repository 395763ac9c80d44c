from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fibmod.fib as fib_module
from fibmod.fib import (
    FIB_EXACT_CAP,
    binomial_expansion_rhs,
    doubling_rhs,
    fib_exact,
    fib_pair_mod,
    matrix_pow_mod,
    subtraction_rhs,
)

from helpers import fib_upto

FIB = fib_upto(3001)
MODULI = [1, 2, 3, 5, 6, 7, 10, 11, 12, 25, 36, 97, 144, 1000, 999983, 10**9 + 7]


class TestFibExact:
    @pytest.mark.parametrize("n,value", [(0, 0), (1, 1), (10, 55), (24, 46368)])
    def test_examples(self, n, value):
        assert fib_exact(n) == value

    def test_matches_recurrence(self):
        for n in range(500):
            assert fib_exact(n) == FIB[n]

    def test_cap(self, monkeypatch):
        assert FIB_EXACT_CAP == 1_000_000
        monkeypatch.setattr(fib_module, "FIB_EXACT_CAP", 5)
        with pytest.raises(ValueError):
            fib_exact(10)
        assert fib_exact(5) == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fib_exact(-1)


class TestFibPairMod:
    def test_examples(self):
        assert fib_pair_mod(0, 7) == (0, 1)
        assert fib_pair_mod(24, 36) == (0, 1)  # 36 | u_24 = 46368, u_25 = 75025
        assert fib_pair_mod(20, 25) == (15, 21)  # u_20 = 6765, u_21 = 10946
        assert fib_pair_mod(24, 1000) == (368, 25)

    def test_matches_exact(self):
        for n in range(0, 1200):
            for m in (2, 7, 36, 97, 1000):
                assert fib_pair_mod(n, m) == (FIB[n] % m, FIB[n + 1] % m)

    def test_modulus_one(self):
        for n in (0, 17):
            assert fib_pair_mod(n, 1) == (0, 0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            fib_pair_mod(3, 0)
        with pytest.raises(ValueError):
            fib_pair_mod(-1, 5)


class TestMatrixPowMod:
    def test_identity_at_zero(self):
        mat = matrix_pow_mod(0, 7)
        assert (mat.u_prev, mat.u_cur, mat.u_next) == (1, 0, 1)

    def test_examples(self):
        assert matrix_pow_mod(24, 1000).u_cur == 368
        mat = matrix_pow_mod(10, 11)
        assert (mat.u_cur, mat.u_next) == (0, 1)

    def test_negative_identity_detection(self):
        # u_9, u_10, u_11 = 34, 55, 89 == -1, 0, -1 mod 5
        assert matrix_pow_mod(10, 5).is_negative_identity
        assert not matrix_pow_mod(24, 5).is_negative_identity

    def test_entries_match_exact(self):
        for n in range(0, 3001):
            for m in (2, 5, 11, 36, 1000):
                mat = matrix_pow_mod(n, m)
                want_prev = 1 % m if n == 0 else FIB[n - 1] % m
                assert (mat.u_prev, mat.u_cur, mat.u_next) == (
                    want_prev,
                    FIB[n] % m,
                    FIB[n + 1] % m,
                )

    def test_structural_invariants(self):
        for n in range(0, 10_001):
            for m in (5, 97, 10**9 + 7):
                mat = matrix_pow_mod(n, m)
                assert mat.recurrence_ok()
                assert mat.determinant_ok()
        for n in range(0, 10_001, 37):
            for m in MODULI:
                mat = matrix_pow_mod(n, m)
                assert mat.recurrence_ok()
                assert mat.determinant_ok()

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValueError):
            matrix_pow_mod(5, 0)


class TestDoublingIdentity:
    def test_examples(self):
        assert doubling_rhs(1, 100) == 1 == FIB[2]
        assert doubling_rhs(12, 10**5) == 46368
        assert doubling_rhs(30, 999983) == FIB[60] % 999983

    def test_full_range_against_exact(self):
        for n in range(1, 501):
            for m in (7, 36, 999983):
                assert doubling_rhs(n, m) == FIB[2 * n] % m

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            doubling_rhs(0, 7)


class TestSubtractionIdentity:
    def test_equal_indices_give_zero(self):
        for n in (0, 1, 17, 400):
            assert subtraction_rhs(n, n, 1000) == 0

    def test_examples(self):
        assert subtraction_rhs(10, 3, 1000) == 13  # u_7
        assert subtraction_rhs(24, 0, 10**5) == 46368

    def test_grid_against_exact(self):
        for m_idx in range(0, 501, 7):
            for n_idx in range(0, m_idx + 1, 11):
                for mod in (12, 997):
                    assert subtraction_rhs(m_idx, n_idx, mod) == FIB[m_idx - n_idx] % mod

    def test_order_violation_rejected(self):
        with pytest.raises(ValueError):
            subtraction_rhs(3, 10, 1000)


class TestBinomialExpansion:
    def test_single_term(self):
        for k in (1, 2, 9, 40):
            assert binomial_expansion_rhs(k, 1, 10**6) == FIB[k] % 10**6

    def test_examples(self):
        assert binomial_expansion_rhs(12, 2, 10**5) == 46368
        assert binomial_expansion_rhs(8, 3, 997) == 46368 % 997 == 506

    def test_grid_against_exact(self):
        for k in range(1, 61):
            for n in range(1, 13):
                assert binomial_expansion_rhs(k, n, 997) == FIB[k * n] % 997
        for k in range(1, 61, 3):
            for n in range(1, 13):
                for mod in (9, 100, 10**9 + 7):
                    assert binomial_expansion_rhs(k, n, mod) == FIB[k * n] % mod

    def test_composite_modulus_no_inverse_needed(self):
        # modulus shares factors with the binomials; exact-then-reduce must cope
        assert binomial_expansion_rhs(6, 6, 36) == FIB[36] % 36

    def test_rejects_zero_arguments(self):
        with pytest.raises(ValueError):
            binomial_expansion_rhs(0, 2, 10)
        with pytest.raises(ValueError):
            binomial_expansion_rhs(2, 0, 10)
        with pytest.raises(ValueError, match="^modulus must be >= 1, got 0$"):
            binomial_expansion_rhs(2, 2, 0)


@settings(deadline=None, max_examples=200)
@given(n=st.integers(0, 2999), m=st.integers(1, 10**9))
def test_pair_agrees_with_matrix_route(n, m):
    mat = matrix_pow_mod(n, m)
    assert (mat.u_cur, mat.u_next) == fib_pair_mod(n, m)


@settings(deadline=None, max_examples=200)
@given(
    n=st.integers(0, 10**6),
    k=st.integers(0, 6),
    m=st.one_of(st.just(1), st.integers(2, 10**9), st.integers(10**24, 10**30)),
)
def test_doublings_match_the_ladder(n, k, m):
    pairs = fib_module._doublings(fib_pair_mod(n, m), k, m)
    assert pairs == [fib_pair_mod(n << i, m) for i in range(k + 1)]


@settings(deadline=None, max_examples=200)
@given(n=st.integers(1, 1499), m=st.integers(1, 10**9))
def test_doubling_identity_holds(n, m):
    assert doubling_rhs(n, m) == fib_pair_mod(2 * n, m)[0]


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_subtraction_identity_holds(data):
    m_idx = data.draw(st.integers(0, 1500))
    n_idx = data.draw(st.integers(0, m_idx))
    mod = data.draw(st.integers(1, 10**9))
    assert subtraction_rhs(m_idx, n_idx, mod) == fib_pair_mod(m_idx - n_idx, mod)[0]


@settings(deadline=None, max_examples=100)
@given(k=st.integers(1, 60), n=st.integers(1, 12), mod=st.integers(1, 10**9))
def test_binomial_expansion_identity_holds(k, n, mod):
    assert binomial_expansion_rhs(k, n, mod) == fib_pair_mod(k * n, mod)[0]


@settings(deadline=None, max_examples=200)
@given(
    k=st.integers(1, 3000),
    n=st.integers(1, 200),
    mod=st.one_of(st.just(1), st.integers(2, 10**9)),
)
def test_binomial_expansion_matches_the_comb_formula(k, n, mod):
    want = sum(
        comb(n, i) * FIB[i] * pow(FIB[k], i, mod) * pow(FIB[k - 1], n - i, mod)
        for i in range(1, n + 1)
    ) % mod
    assert binomial_expansion_rhs(k, n, mod) == want
