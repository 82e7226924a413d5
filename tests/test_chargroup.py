"""Character-group machinery tests."""

import random
from importlib import resources

import pytest

from iwasawalab.arith import CycloNumber, euler_phi
from iwasawalab.chargroup import (
    FinAbGroup,
    GaloisAction,
    GroupAutomorphism,
    GroupChar,
    GroupError,
    GroupHom,
    SemidirectGroup,
    TowerParseError,
    char_table,
    conductor_exponent,
    conjugate_char,
    galois_orbits,
    parse_tower_file,
)


def test_char_table_trivial_group():
    g = FinAbGroup(())
    table = char_table(g)
    assert len(table) == 1 and table[0].is_trivial()


def test_char_table_z2():
    g = FinAbGroup((2,))
    table = char_table(g)
    values = sorted(chi.value((1,)).rational_value() for chi in table)
    assert values == [-1, 1]


def test_char_table_builds_the_characters_once_per_group(monkeypatch):
    built = []
    post_init = GroupChar.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(GroupChar, "__post_init__", counted)
    g = FinAbGroup((4, 5))
    first = char_table(g)
    assert len(built) == 20
    second = char_table(g)
    assert len(built) == 20
    assert second == first and second is not first
    second.pop()
    assert len(char_table(g)) == 20
    # an equal group object gets characters that carry it
    other = FinAbGroup((4, 5))
    assert char_table(other) == first and len(built) == 40
    assert all(chi.group is other for chi in char_table(other))


def test_orthogonality_z5_direct_summation():
    g = FinAbGroup((5,))
    table = char_table(g)
    for chi in table:
        for psi in table:
            s = CycloNumber.from_rational(0)
            for x in g.elements():
                s = s + chi.value(x) * psi.value(g.neg(x))
            assert s == (5 if chi == psi else 0)


def test_multiplicativity_exact():
    g = FinAbGroup((4, 5))
    rng = random.Random(1)
    chi = GroupChar(g, (3, 2))
    for _ in range(50):
        x = g.normalize((rng.randrange(4), rng.randrange(5)))
        y = g.normalize((rng.randrange(4), rng.randrange(5)))
        assert chi.value(g.add(x, y)) == chi.value(x) * chi.value(y)


def test_conductor_exponent_chain():
    # (Z/25)^x-style chain on Z/20 = Z/4 x Z/5: U0 = whole, U1 = Z/5 part
    g = FinAbGroup((4, 5))
    g.add_inertia_chain("p", [[(1, 0), (0, 1)], [(0, 1)]])
    trivial = GroupChar(g, (0, 0))
    faithful = GroupChar(g, (1, 1))
    tame = GroupChar(g, (1, 0))  # factors through the (Z/5)^x-style quotient
    assert conductor_exponent(trivial, "p") == 0
    assert conductor_exponent(faithful, "p") == 2
    assert conductor_exponent(tame, "p") == 1


def test_conductor_requires_labels():
    g = FinAbGroup((5,))
    with pytest.raises(GroupError):
        conductor_exponent(GroupChar(g, (1,)), "p")


def test_conductor_monotone_on_nested_chain():
    g = FinAbGroup((25,))
    g.add_inertia_chain("p", [[(1,)], [(5,)]])
    table = char_table(g)
    for chi in table:
        for psi in table:
            f = conductor_exponent(chi * psi, "p")
            assert f <= max(conductor_exponent(chi, "p"), conductor_exponent(psi, "p"))


def test_galois_orbits_full_action_on_zp():
    g = FinAbGroup((5,))
    action = GaloisAction(((2,),))  # 2 generates (Z/5)^x
    orbits = galois_orbits(char_table(g), action)
    sizes = sorted(len(o) for o in orbits)
    assert sizes == [1, 4]


def test_galois_orbits_trivial_action():
    g = FinAbGroup((5, 5))
    action = GaloisAction(((1, 1),))
    orbits = galois_orbits(char_table(g), action)
    assert all(len(o) == 1 for o in orbits)


def test_orbits_H_equals_GL_for_p_power_conductors():
    g = FinAbGroup((5, 5))
    h_action = GaloisAction(((2, 2),))
    gl_action = GaloisAction(((2, 2), (3, 3)))
    table = char_table(g)
    oh = {frozenset(o) for o in galois_orbits(table, h_action)}
    ogl = {frozenset(o) for o in galois_orbits(table, gl_action)}
    assert oh == ogl


def test_conjugate_char_swap():
    g = FinAbGroup((5, 5))
    swap = GroupAutomorphism.swap(g, 0, 1)
    chi = GroupChar(g, (1, 3))
    assert conjugate_char(chi, swap) == GroupChar(g, (3, 1))
    assert conjugate_char(conjugate_char(chi, swap), swap) == chi
    trivial = GroupChar(g, (0, 0))
    assert conjugate_char(trivial, swap) == trivial
    fixed = [chi for chi in char_table(g) if conjugate_char(chi, swap) == chi]
    assert all(chi.exponents[0] == chi.exponents[1] for chi in fixed)
    assert len(fixed) == 5


def test_conjugate_rejects_non_involution():
    g = FinAbGroup((5,))
    doubling = GroupAutomorphism(g, ((2,),))
    with pytest.raises(GroupError):
        conjugate_char(GroupChar(g, (1,)), doubling)


def test_semidirect_group_law():
    g = FinAbGroup((5,))
    inv = GroupAutomorphism.inversion(g)
    sg = SemidirectGroup(g, inv)
    c = sg.c()
    x = ((2,), 0)
    assert sg.mul(c, c) == sg.identity()
    # c * g * c^-1 = g^-1
    assert sg.mul(sg.mul(c, x), c) == ((3,), 0)
    for el in sg.elements():
        assert sg.mul(el, sg.inv(el)) == sg.identity()


def test_group_hom_pullback_and_reduction():
    big = FinAbGroup((25, 25))
    small = FinAbGroup((5, 5))
    red = GroupHom.reduction(big, small)
    assert red.is_surjective()
    chi = GroupChar(small, (2, 3))
    lifted = red.pullback_char(chi)
    for g in big.elements()[:50]:
        assert lifted.value(g) == chi.value(red.apply(g))


def test_parse_shipped_tower_file():
    text = resources.files("iwasawalab.data").joinpath("tower_p5_level1.cfg").read_text()
    spec = parse_tower_file(text)
    assert spec.p == 5
    assert len(spec.levels) == 2
    l1, l2 = spec.levels
    assert l1.group.orders == (5, 5)
    assert l2.group.orders == (25, 25)
    assert l2.projection is not None and l2.projection.is_surjective()
    assert "p" in l1.group.inertia and "pbar" in l1.group.inertia
    assert l1.group.gamma_quotient is not None
    chi = GroupChar(l1.group, (1, 0))
    assert conductor_exponent(chi, "p") == 1
    assert conductor_exponent(chi, "pbar") == 0
    # c-compatibility of the declared chains
    cconj = conjugate_char(chi, l1.c_action)
    assert conductor_exponent(cconj, "pbar") == 1


def test_parser_rejects_unknown_keys_with_line_numbers():
    bad = "p = 5\n[level 1]\norders = 5\nfrobnicate = 1\n"
    with pytest.raises(TowerParseError) as err:
        parse_tower_file(bad)
    assert "line 4" in str(err.value)


def test_parser_rejects_non_involutive_c_action():
    bad = "p = 5\n[level 1]\norders = 5\nc_action = (2)\n"
    with pytest.raises(GroupError):
        parse_tower_file(bad)


def test_char_rejects_exponent_arity_mismatch():
    g = FinAbGroup((5, 5))
    for exponents in ((1,), (1, 2, 3), ()):
        with pytest.raises(GroupError, match="needs 2 exponents"):
            GroupChar(g, exponents)
    assert GroupChar(FinAbGroup(()), ()).is_trivial()


def _shipped_levels():
    text = resources.files("iwasawalab.data").joinpath("tower_p5_level1.cfg").read_text()
    return parse_tower_file(text).levels


@pytest.mark.parametrize("level_index", [0, 1])
def test_semidirect_conjugation_table_is_the_definition(level_index):
    level = _shipped_levels()[level_index]
    sg, group, c = level.semidirect, level.group, level.c_action
    rng = random.Random(level_index)
    elements = group.elements()
    sample = elements if len(elements) <= 25 else rng.sample(elements, 25)
    for chi in char_table(group):
        conj = sg.conjugate_char(chi)
        assert conj == conjugate_char(chi, c) and conj.group is group
        assert sg.conjugate_char(chi) is conj  # the second call reads the table
        # chi^c(g) = chi(c(g))
        for g in sample:
            assert conj.value_exponent(g) == chi.value_exponent(c.apply(g))
    assert len(sg._conjugates) == group.order()
    # a character of an equal group keeps its own group object
    twin = FinAbGroup(group.orders)
    assert sg.conjugate_char(GroupChar(twin, (1, 0))).group is twin
    with pytest.raises(GroupError):
        sg.conjugate_char(GroupChar(FinAbGroup((7, 7)), (1, 0)))


@pytest.mark.parametrize("level_index", [0, 1])
def test_conductor_exponent_table_is_the_elementwise_one(level_index):
    group = _shipped_levels()[level_index].group

    def elementwise(chi, place):
        chain = group.inertia[place]
        return next((n for n, sub in enumerate(chain)
                     if all(chi.value(g) == 1 for g in sub)), len(chain))

    for _ in range(2):  # the second pass reads the table
        for chi in char_table(group):
            for place in ("p", "pbar"):
                assert conductor_exponent(chi, place) == elementwise(chi, place)
    assert len(group._conductors) == 2 * group.order()


def test_conductor_exponent_follows_a_replaced_chain():
    g = FinAbGroup((25,))
    g.add_inertia_chain("p", [[(1,)], [(5,)]])
    chi = GroupChar(g, (5,))  # trivial on 5Z/25, not on Z/25
    assert conductor_exponent(chi, "p") == 1
    g.add_inertia_chain("p", [[(5,)]])
    assert conductor_exponent(chi, "p") == 0
    g.add_inertia_chain("p", [[(1,)]])
    assert conductor_exponent(chi, "p") == 1
    assert conductor_exponent(GroupChar(g, (1,)), "p") == 1


def test_semidirect_group_rejects_non_involution():
    g = FinAbGroup((5,))
    with pytest.raises(GroupError, match="involution"):
        SemidirectGroup(g, GroupAutomorphism(g, ((2,),)))
    g2 = FinAbGroup((5, 5))
    with pytest.raises(GroupError, match="involution"):
        SemidirectGroup(g2, GroupAutomorphism(g2, ((0, 1), (1, 1))))
