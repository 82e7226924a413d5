"""Representation classification and Frobenius reciprocity tests."""

import pytest

from iwasawalab.chargroup import (
    FinAbGroup,
    GroupAutomorphism,
    GroupChar,
    GroupError,
    SemidirectGroup,
    char_table,
)
from iwasawalab.reps import (
    inner_product_with_char,
    ArtinRep,
    classify_irreps,
    induce,
    inner_product,
    inner_product_with_char,
    rep_invariants,
)


def _sg_trivial():
    g = FinAbGroup(())
    return SemidirectGroup(g, GroupAutomorphism.identity_map(g))


def _sg_z5_inversion():
    g = FinAbGroup((5,))
    return SemidirectGroup(g, GroupAutomorphism.inversion(g))


def _sg_z5z5_swap(with_inertia=False):
    g = FinAbGroup((5, 5))
    if with_inertia:
        g.add_inertia_chain("p", [[(1, 0)]])
        g.add_inertia_chain("pbar", [[(0, 1)]])
    return SemidirectGroup(g, GroupAutomorphism.swap(g, 0, 1))


def test_classify_trivial_base():
    irreps = classify_irreps(_sg_trivial())
    assert len(irreps) == 2
    assert {r.sign for r in irreps} == {1, -1}
    assert all(r.dimension == 1 for r in irreps)


def test_classify_z5_inversion_counts():
    irreps = classify_irreps(_sg_z5_inversion())
    dims = sorted(r.dimension for r in irreps)
    assert dims == [1, 1, 2, 2]
    assert sum(d * d for d in dims) == 10


def test_classify_z5z5_swap_sum_of_squares():
    irreps = classify_irreps(_sg_z5z5_swap())
    assert sum(r.dimension ** 2 for r in irreps) == 50
    assert sum(1 for r in irreps if r.kind == "linear") == 10
    assert sum(1 for r in irreps if r.kind == "induced") == 10


def test_every_classified_irrep_has_norm_one():
    for sg in (_sg_trivial(), _sg_z5_inversion(), _sg_z5z5_swap()):
        for rho in classify_irreps(sg):
            assert inner_product(rho, rho) == 1


def test_induce_trivial_char_splits_into_trivial_plus_sign():
    sg = _sg_z5_inversion()
    triv = GroupChar(sg.base, (0,))
    ind = induce(sg, triv)
    assert not ind.is_irreducible()
    plus = ArtinRep(sg, "linear", triv, 1)
    minus = ArtinRep(sg, "linear", triv, -1)
    for x in sg.elements():
        assert ind.character(x) == plus.character(x) + minus.character(x)


def test_induce_self_conjugate_char_splits():
    sg = _sg_z5z5_swap()
    chi = GroupChar(sg.base, (2, 2))  # fixed by the swap
    ind = induce(sg, chi)
    assert not ind.is_irreducible()
    plus = ArtinRep(sg, "linear", chi, 1)
    minus = ArtinRep(sg, "linear", chi, -1)
    for x in sg.elements():
        assert ind.character(x) == plus.character(x) + minus.character(x)


def test_induce_generic_char_is_irreducible():
    sg = _sg_z5z5_swap()
    chi = GroupChar(sg.base, (1, 3))
    ind = induce(sg, chi)
    assert ind.is_irreducible()
    assert inner_product(ind, ind) == 1
    assert ind.restriction() == [chi, sg.conjugate_char(chi)]
    # Ind chi and Ind chi^c share the character function
    ind2 = induce(sg, sg.conjugate_char(chi))
    for x in sg.elements():
        assert ind.character(x) == ind2.character(x)


def test_induced_vanishes_off_base():
    sg = _sg_z5z5_swap()
    ind = induce(sg, GroupChar(sg.base, (1, 0)))
    for g in sg.base.elements():
        assert ind.character((g, 1)).is_zero()


def test_frobenius_reciprocity_full_table():
    sg = _sg_z5_inversion()
    irreps = classify_irreps(sg)
    for rho in irreps:
        for chi in char_table(sg.base):
            lhs = inner_product_with_char(rho, chi)
            rhs = inner_product(rho, induce(sg, chi))
            assert lhs == rhs


def test_inner_product_ind_chi_with_ind_chi_conj():
    sg = _sg_z5z5_swap()
    chi = GroupChar(sg.base, (1, 2))
    assert inner_product(induce(sg, chi), induce(sg, sg.conjugate_char(chi))) == 1


def test_rep_invariants_eigenspaces_and_conductor():
    sg = _sg_z5z5_swap(with_inertia=True)
    ind = induce(sg, GroupChar(sg.base, (1, 0)))
    inv = rep_invariants(ind)
    assert (inv.d_plus, inv.d_minus) == (1, 1)
    assert inv.f_p == 1  # ramified at p only
    triv = ArtinRep(sg, "linear", GroupChar(sg.base, (0, 0)), 1)
    inv_t = rep_invariants(triv)
    assert (inv_t.d_plus, inv_t.d_minus, inv_t.f_p) == (1, 0, 0)
    minus = ArtinRep(sg, "linear", GroupChar(sg.base, (0, 0)), -1)
    inv_m = rep_invariants(minus)
    assert (inv_m.d_plus, inv_m.d_minus) == (0, 1)


def test_double_contragredient_identity():
    for sg in (_sg_z5_inversion(), _sg_z5z5_swap()):
        for rho in classify_irreps(sg):
            back = rho.contragredient().contragredient()
            assert rho.same_character(back)


def test_matrix_realization_is_homomorphism():
    sg = _sg_z5z5_swap()
    rho = induce(sg, GroupChar(sg.base, (1, 4)))

    def matmul(a, b):
        n = len(a)
        return tuple(
            tuple(sum((a[i][k] * b[k][j] for k in range(n)),
                      start=type(a[0][0]).from_rational(0)) for j in range(n))
            for i in range(n))

    els = sg.elements()
    for x in els[::7]:
        for y in els[::11]:
            assert rho.matrix(sg.mul(x, y)) == matmul(rho.matrix(x), rho.matrix(y))


def test_linear_rep_requires_fixed_char():
    sg = _sg_z5z5_swap()
    with pytest.raises(GroupError):
        ArtinRep(sg, "linear", GroupChar(sg.base, (1, 0)), 1)


def test_fast_inner_products_agree_with_direct_summation():
    from iwasawalab.reps import (
    inner_product_with_char,inner_product_fast,
                                 inner_product_with_char_fast)
    for sg in (_sg_z5_inversion(), _sg_z5z5_swap()):
        irreps = classify_irreps(sg)
        for r1 in irreps[::3]:
            for r2 in irreps[::4]:
                assert inner_product(r1, r2) == inner_product_fast(r1, r2)
        for r1 in irreps[::5]:
            for chi in char_table(sg.base)[::3]:
                assert inner_product_with_char(r1, chi) == \
                    inner_product_with_char_fast(r1, chi)
