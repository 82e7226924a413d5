"""Gauss sum and local-constant identity tests."""

import pytest

from iwasawalab.arith import CycloNumber, legendre_symbol, zeta
from iwasawalab.epsilon import (
    PSI_MINUS_X,
    PSI_X,
    EpsilonError,
    LocalChar,
    epsilon_factor,
    gauss_sum,
    inductivity_split,
    local_char_table,
    verify_sigma_delta,
)


def test_local_char_validation():
    with pytest.raises(EpsilonError):
        LocalChar(5, 1, 0)  # conductor p needs a nontrivial character
    with pytest.raises(EpsilonError):
        LocalChar(5, 2, 5)  # 5 * dlog(1 + 5) kills the deepest layer
    chi = LocalChar(5, 2, 1)
    assert chi.value(1) == 1
    assert chi.value(chi.generator()) == zeta(20)


def test_local_char_table_counts_and_conductors():
    tbl5 = local_char_table(5, 2)
    assert len(tbl5) == 20
    assert sorted(c.n for c in tbl5) == [0] + [1] * 3 + [2] * 16
    tbl7 = local_char_table(7, 2)
    assert len(tbl7) == 42
    assert sorted(c.n for c in tbl7) == [0] + [1] * 5 + [2] * 36


def test_quadratic_gauss_sum_squares_to_p():
    chi = LocalChar(5, 1, 2)
    assert chi.at_minus_one() == 1
    g = gauss_sum(chi)
    assert g * g == 5


def test_gauss_times_bar_is_chi_minus_one_p():
    # classical identity, double-sum oracle realized by exact expansion
    for p in (5, 7):
        for chi in local_char_table(p, 2):
            if chi.n == 0:
                continue
            assert gauss_sum(chi) * gauss_sum(chi.bar()) == chi.at_minus_one() * p ** chi.n


def test_gauss_sum_rejects_trivial():
    with pytest.raises(EpsilonError):
        gauss_sum(LocalChar(5, 0))


def test_absolute_value_squared():
    # |G(chi)|^2 = p^n via the conjugation action zeta -> zeta^-1
    for p in (5, 7):
        for chi in local_char_table(p, 2):
            if chi.n == 0:
                continue
            g = gauss_sum(chi)
            assert g * g.conjugate() == p ** chi.n


def test_epsilon_trivial_character():
    assert epsilon_factor(LocalChar(5, 0)) == 1
    assert epsilon_factor(LocalChar(7, 0), PSI_X) == 1


def test_epsilon_duality_full_tables():
    for p in (5, 7):
        for chi in local_char_table(p, 2):
            lhs = epsilon_factor(chi.bar(), PSI_X) * epsilon_factor(chi, PSI_MINUS_X)
            assert lhs == p ** chi.n


def test_epsilon_convention_flip():
    for chi in local_char_table(5, 2):
        if chi.n:
            assert epsilon_factor(chi, PSI_X) == chi.at_minus_one() * epsilon_factor(chi, PSI_MINUS_X)


def test_epsilon_unramified_twist_scaling():
    u = zeta(4)
    base = LocalChar(5, 1, 1)
    twisted = LocalChar(5, 1, 1, unram_value=u.inverse())
    assert epsilon_factor(twisted) == u.inverse() * epsilon_factor(base)
    deeper = LocalChar(5, 2, 3, unram_value=u)
    assert epsilon_factor(deeper) == u * u * epsilon_factor(LocalChar(5, 2, 3))


def test_epsilon_rejects_unknown_conventions():
    with pytest.raises(EpsilonError):
        epsilon_factor(LocalChar(5, 1, 1), additive="psi(2x)")
    with pytest.raises(EpsilonError):
        epsilon_factor(LocalChar(5, 1, 1), measure="dx_selfdual")


def test_sigma_delta_d11_quadratic():
    report = verify_sigma_delta(LocalChar(5, 1, 2), 11)
    assert report.holds
    assert report.delta_residue in (2, 3)  # sqrt(-11) mod 5; tie-break picks 2


def test_sigma_delta_d4_all_characters_mod_25():
    for chi in local_char_table(5, 2):
        if chi.n >= 1:
            assert verify_sigma_delta(chi, 4).holds


def test_sigma_delta_inert_rejected():
    with pytest.raises(EpsilonError):
        verify_sigma_delta(LocalChar(5, 1, 1), 3)  # -3 is a non-residue mod 5


def test_sigma_delta_all_admissible_pairs():
    pairs = []
    for p in (5, 7):
        for d in (3, 4, 7, 8, 11, 19, 43, 67, 163):
            if d % p and legendre_symbol(-d, p) == 1:
                pairs.append((p, d))
    assert pairs == [(5, 4), (5, 11), (5, 19), (7, 3), (7, 19)]
    for p, d in pairs:
        for chi in local_char_table(p, 1):
            if chi.n >= 1:
                assert verify_sigma_delta(chi, d).holds


def test_inductivity_split():
    triv = LocalChar(5, 0)
    out = inductivity_split(triv, triv)
    assert out["epsilon"] == 1 and out["conductor_exponent"] == 0
    ram = LocalChar(5, 1, 1)
    out = inductivity_split(ram, triv)
    assert out["epsilon"] == epsilon_factor(ram)
    assert out["conductor_exponent"] == 1
    # product oracle on a random-ish pair
    a, b = LocalChar(5, 2, 3), LocalChar(5, 1, 2)
    out = inductivity_split(a, b)
    assert out["epsilon"] == epsilon_factor(a) * epsilon_factor(b)
    assert out["conductor_exponent"] == 3


def _naive_character_sum(chi, t):
    """sum over units u mod p^n of chi(u) zeta_{p^n}^(t*u), one zeta term per unit."""
    q = chi.modulus
    m = q * (chi.p - 1)
    total = CycloNumber.from_rational(0, m)
    for u in range(1, q):
        if u % chi.p:
            vm, vk = chi.value_exponent(u)
            total = total + zeta(m, vk * (m // vm) + t * u * (m // q))
    return total


@pytest.mark.parametrize("p, n_max, stride", [(5, 3, 3), (7, 2, 1)])
def test_character_sums_match_naive_zeta_sums(p, n_max, stride):
    # both additive conventions, a shift other than 1 and an unramified twist
    u = zeta(4)
    for chi in local_char_table(p, n_max)[1::stride]:
        assert gauss_sum(chi) == _naive_character_sum(chi, -1)
        assert epsilon_factor(chi, PSI_X) == _naive_character_sum(chi, 1)
        twisted = LocalChar(chi.p, chi.n, chi.exponent, unram_value=u)
        assert epsilon_factor(twisted, PSI_MINUS_X, shift=2) == \
            u ** chi.n * _naive_character_sum(chi, -2)


def test_unramified_character_carries_no_exponent():
    assert LocalChar(5, 0, 0) == LocalChar(5, 0)
    with pytest.raises(EpsilonError, match="cannot carry an exponent"):
        LocalChar(5, 0, 3)
