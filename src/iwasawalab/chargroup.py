"""Finite abelian groups, their characters, and labeled ramification data.

A group is a product of cyclic factors; elements are integer tuples with
componentwise arithmetic.  Characters carry one exponent per factor and take
exact cyclotomic values.  Ramification is user-declared: a descending chain
of labeled subgroups per place (the config format documents a worked level-1
example).  Galois actions on characters are declared by the multipliers they
realize on each cyclic factor's root-of-unity values.

Towers of these groups, connected by declared surjections, stand in for the
profinite Galois groups; every identity checked downstream is a statement
about such finite quotients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .arith import CycloNumber, lcm, zeta

__all__ = [
    "GroupError",
    "FinAbGroup",
    "GroupChar",
    "char_table",
    "conductor_exponent",
    "conjugate_char",
    "GaloisAction",
    "galois_orbits",
    "SemidirectGroup",
    "GroupHom",
    "parse_tower_file",
    "TowerSpec",
    "TowerLevel",
]


class GroupError(ValueError):
    pass


Element = tuple[int, ...]


class FinAbGroup:
    """Product of cyclic groups Z/n_1 x ... x Z/n_r with optional labels.

    labels: named subgroups (generator lists), inertia chains per place,
    a distinguished quotient map, and declared Galois exponent actions.
    Labeled subgroups are closure-checked on construction.

    `conductor_exponent` reads a table keyed by (place, character
    exponents) and filled on first use, so it holds at most one entry per
    declared chain and character; `add_inertia_chain` empties it.
    `char_table` keeps the characters on the group object that they carry,
    built on first use.
    """

    def __init__(self, orders, name: str = ""):
        orders = tuple(int(n) for n in orders)
        if any(n < 1 for n in orders):
            raise GroupError("cyclic orders must be >= 1")
        self.orders = orders
        self.name = name
        self.subgroups: dict[str, frozenset[Element]] = {}
        self.inertia: dict[str, list[frozenset[Element]]] = {}
        self._conductors: dict[tuple[str, Element], int] = {}
        self._chars: tuple[GroupChar, ...] | None = None
        self.gamma_quotient: GroupHom | None = None
        self.galois_actions: dict[str, GaloisAction] = {}

    # -- basic structure -----------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.orders)

    def order(self) -> int:
        n = 1
        for k in self.orders:
            n *= k
        return n

    def exponent(self) -> int:
        e = 1
        for k in self.orders:
            e = lcm(e, k)
        return e

    def identity(self) -> Element:
        return (0,) * self.rank

    def normalize(self, g) -> Element:
        g = tuple(int(x) % n for x, n in zip(g, self.orders))
        if len(g) != self.rank:
            raise GroupError("element arity mismatch")
        return g

    def add(self, g: Element, h: Element) -> Element:
        return tuple((a + b) % n for a, b, n in zip(g, h, self.orders))

    def neg(self, g: Element) -> Element:
        return tuple(-a % n for a, n in zip(g, self.orders))

    def elements(self) -> list[Element]:
        out = [()]
        for n in self.orders:
            out = [e + (x,) for e in out for x in range(n)]
        return [tuple(e) for e in out]

    def __eq__(self, other):
        return isinstance(other, FinAbGroup) and self.orders == other.orders

    def __hash__(self):
        return hash(self.orders)

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"FinAbGroup({'x'.join(f'Z/{n}' for n in self.orders) or '1'}{label})"

    # -- labels ----------------------------------------------------------

    def span(self, gens) -> frozenset[Element]:
        gens = [self.normalize(g) for g in gens]
        seen = {self.identity()}
        frontier = [self.identity()]
        while frontier:
            g = frontier.pop()
            for x in gens:
                h = self.add(g, x)
                if h not in seen:
                    seen.add(h)
                    frontier.append(h)
        return frozenset(seen)

    def add_subgroup_label(self, name: str, gens) -> frozenset[Element]:
        sub = self.span(gens)
        # closure is automatic for span; re-verify as the construction contract
        for a in sub:
            for b in sub:
                if self.add(a, b) not in sub:
                    raise GroupError(f"label {name}: not closed")
        self.subgroups[name] = sub
        return sub

    def add_inertia_chain(self, place: str, chain_gens: list[list]) -> None:
        """Descending chain U_0 >= U_1 >= ...; the trivial group is implicit."""
        chain = [self.span(gens) for gens in chain_gens]
        for upper, lower in zip(chain, chain[1:]):
            if not lower <= upper:
                raise GroupError(f"inertia chain at {place} is not descending")
        self.inertia[place] = chain
        self._conductors.clear()

    def set_gamma_quotient(self, hom: "GroupHom") -> None:
        if hom.source is not self:
            raise GroupError("quotient map must start at this group")
        self.gamma_quotient = hom

    def add_galois_action(self, name: str, action: "GaloisAction") -> None:
        action.validate(self)
        self.galois_actions[name] = action


@dataclass(frozen=True)
class GroupChar:
    """Character of a FinAbGroup, one exponent per cyclic factor."""

    group: FinAbGroup
    exponents: Element

    def __post_init__(self):
        if len(self.exponents) != self.group.rank:
            raise GroupError(f"character needs {self.group.rank} exponents, "
                             f"got {len(self.exponents)}")
        object.__setattr__(self, "exponents",
                           tuple(e % n for e, n in zip(self.exponents, self.group.orders)))

    def value(self, g) -> CycloNumber:
        return zeta(*self.value_exponent(g))

    def value_exponent(self, g) -> tuple[int, int]:
        """(m, k) with value = zeta_m^k; fast path avoiding CycloNumber."""
        g = self.group.normalize(g)
        m = self.group.exponent()
        k = 0
        for e, x, n in zip(self.exponents, g, self.group.orders):
            k = (k + e * x * (m // n)) % m
        return m, k

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def is_trivial_on(self, sub) -> bool:
        return all(self.value_exponent(g)[1] == 0 for g in sub)

    def __mul__(self, other: "GroupChar") -> "GroupChar":
        if self.group != other.group:
            raise GroupError("character group mismatch")
        return GroupChar(self.group, tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def inverse(self) -> "GroupChar":
        return GroupChar(self.group, tuple(-e for e in self.exponents))

    bar = inverse  # complex conjugate of a finite-order character

    def power(self, a: int) -> "GroupChar":
        return GroupChar(self.group, tuple(a * e for e in self.exponents))

    def __repr__(self):
        return f"Char{self.exponents}"


def char_table(group: FinAbGroup) -> list[GroupChar]:
    """All |G| characters, in lexicographic exponent order (stable indexing),
    as a fresh list; the characters are built once per group object."""
    chars = group._chars
    if chars is None:
        out = [()]
        for n in group.orders:
            out = [e + (x,) for e in out for x in range(n)]
        chars = group._chars = tuple(GroupChar(group, e) for e in out)
    return list(chars)


def conductor_exponent(chi: GroupChar, place: str) -> int:
    """Smallest n with chi trivial on U_n; 0 iff unramified at the place."""
    group = chi.group
    key = (place, chi.exponents)
    n = group._conductors.get(key)
    if n is None:
        if place not in group.inertia:
            raise GroupError(f"group carries no inertia chain at {place!r}")
        chain = group.inertia[place]
        n = next((n for n, sub in enumerate(chain) if chi.is_trivial_on(sub)), len(chain))
        group._conductors[key] = n
    return n


def conjugate_char(chi: GroupChar, c_action: "GroupAutomorphism") -> GroupChar:
    """chi^c(g) = chi(c(g)) for an involutive automorphism c."""
    if not c_action.is_involution():
        raise GroupError("c-action must be an involution")
    return _conjugate(chi, c_action)


def _conjugate(chi: GroupChar, c_action: "GroupAutomorphism") -> GroupChar:
    """chi o c for an automorphism c already known to be an involution."""
    group = chi.group
    # chi^c exponents: evaluate chi on the images of the generators
    new_exp = []
    m = group.exponent()
    for i, n in enumerate(group.orders):
        gen = tuple(1 if j == i else 0 for j in range(group.rank))
        _, k = chi.value_exponent(c_action.apply(gen))
        # value on generator i is zeta_m^k = zeta_n^{k*n/m}
        if k * n % m != 0:
            raise GroupError("conjugated character is not a character (bad action)")
        new_exp.append(k * n // m)
    return GroupChar(group, tuple(new_exp))


@dataclass(frozen=True)
class GroupAutomorphism:
    """Automorphism given by generator images; apply() is linear extension."""

    group: FinAbGroup
    gen_images: tuple[Element, ...]

    def __post_init__(self):
        if len(self.gen_images) != self.group.rank:
            raise GroupError("need one image per generator")
        object.__setattr__(self, "gen_images",
                           tuple(self.group.normalize(g) for g in self.gen_images))
        for i, img in enumerate(self.gen_images):
            n = self.group.orders[i]
            # the image of a generator of order n must be killed by n
            if any(x * n % m != 0 for x, m in zip(img, self.group.orders)):
                raise GroupError("generator image has wrong order")

    def apply(self, g) -> Element:
        g = self.group.normalize(g)
        out = self.group.identity()
        for x, img in zip(g, self.gen_images):
            if x:
                out = self.group.add(out, tuple(x * y % n for y, n in zip(img, self.group.orders)))
        return out

    def is_involution(self) -> bool:
        for i in range(self.group.rank):
            gen = tuple(1 if j == i else 0 for j in range(self.group.rank))
            if self.apply(self.apply(gen)) != self.group.normalize(gen):
                return False
        return True

    @staticmethod
    def identity_map(group: FinAbGroup) -> "GroupAutomorphism":
        gens = [tuple(1 if j == i else 0 for j in range(group.rank)) for i in range(group.rank)]
        return GroupAutomorphism(group, tuple(gens))

    @staticmethod
    def inversion(group: FinAbGroup) -> "GroupAutomorphism":
        gens = [tuple(-1 % group.orders[j] if j == i else 0 for j in range(group.rank))
                for i in range(group.rank)]
        return GroupAutomorphism(group, tuple(gens))

    @staticmethod
    def swap(group: FinAbGroup, i: int, j: int) -> "GroupAutomorphism":
        if group.orders[i] != group.orders[j]:
            raise GroupError("swap needs equal cyclic orders")
        gens = []
        for k in range(group.rank):
            t = j if k == i else i if k == j else k
            gens.append(tuple(1 if l == t else 0 for l in range(group.rank)))
        return GroupAutomorphism(group, tuple(gens))


@dataclass(frozen=True)
class GaloisAction:
    """Coefficient-Galois action on characters, declared by exponent multipliers.

    Each generator is a tuple of multipliers (one per cyclic factor); the
    generator sends a character with exponents e_i to the one with a_i * e_i.
    Consistency demanded: a_i must be a unit mod n_i.
    """

    generators: tuple[Element, ...]

    def validate(self, group: FinAbGroup) -> None:
        for gen in self.generators:
            if len(gen) != group.rank:
                raise GroupError("action arity mismatch")
            for a, n in zip(gen, group.orders):
                if n > 1 and gcd(a, n) != 1:
                    raise GroupError(f"multiplier {a} not a unit mod {n}")

    def orbit(self, chi: GroupChar) -> frozenset[GroupChar]:
        seen = {chi}
        frontier = [chi]
        while frontier:
            c = frontier.pop()
            for gen in self.generators:
                img = GroupChar(c.group, tuple(a * e for a, e in zip(gen, c.exponents)))
                if img not in seen:
                    seen.add(img)
                    frontier.append(img)
        return frozenset(seen)

    def realized_multiplier_count(self, group: FinAbGroup) -> int:
        """Order of the realized multiplier group (for the orbit-size check)."""
        start = tuple(1 for _ in group.orders)
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for gen in self.generators:
                img = tuple(a * b % n for a, b, n in zip(gen, v, group.orders))
                if img not in seen:
                    seen.add(img)
                    frontier.append(img)
        return len(seen)


def galois_orbits(chars: list[GroupChar], action: GaloisAction) -> list[frozenset[GroupChar]]:
    """Partition of the given characters into orbits under the declared action."""
    if chars:
        action.validate(chars[0].group)
    remaining = set(chars)
    orbits = []
    order = action.realized_multiplier_count(chars[0].group) if chars else 1
    for chi in chars:
        if chi not in remaining:
            continue
        orb = action.orbit(chi)
        if not orb <= set(chars):
            raise GroupError("action does not preserve the given character set")
        if order % len(orb) != 0:
            raise GroupError("orbit size does not divide the action order")
        orbits.append(orb)
        remaining -= orb
    return orbits


# ---------------------------------------------------------------------------
# semidirect products G x| <c> with involutive c
# ---------------------------------------------------------------------------

class SemidirectGroup:
    """G x| <c> with c^2 = e; elements are (g, eps) with eps in {0, 1}.

    Non-split or higher-order extensions are rejected: the c-action must be
    an involution of G.

    `conjugate_char` reads a table keyed by character exponents and filled
    on first use, so it holds at most |G| entries; the involution was checked
    here, so the table's entries skip that check.
    """

    def __init__(self, base: FinAbGroup, c_action: GroupAutomorphism, name: str = ""):
        if c_action.group != base:
            raise GroupError("c-action must act on the base group")
        if not c_action.is_involution():
            raise GroupError("c-action must be an involution (c^2 = e)")
        self.base = base
        self.c_action = c_action
        self.name = name
        self._conjugates: dict[Element, GroupChar] = {}

    def order(self) -> int:
        return 2 * self.base.order()

    def identity(self):
        return (self.base.identity(), 0)

    def c(self):
        return (self.base.identity(), 1)

    def mul(self, x, y):
        (g, a), (h, b) = x, y
        h2 = self.c_action.apply(h) if a else self.base.normalize(h)
        return (self.base.add(self.base.normalize(g), h2), (a + b) % 2)

    def inv(self, x):
        g, a = x
        g = self.base.normalize(g)
        if a == 0:
            return (self.base.neg(g), 0)
        return (self.c_action.apply(self.base.neg(g)), 1)

    def elements(self):
        return [(g, a) for a in (0, 1) for g in self.base.elements()]

    def conjugate_char(self, chi: GroupChar) -> GroupChar:
        if chi.group != self.base:
            raise GroupError("character lives on the wrong group")
        conj = self._conjugates.get(chi.exponents)
        if conj is None:
            conj = self._conjugates[chi.exponents] = _conjugate(chi, self.c_action)
        return conj if conj.group is chi.group else GroupChar(chi.group, conj.exponents)

    def __repr__(self):
        return f"SemidirectGroup({self.base!r} x| c)"


# ---------------------------------------------------------------------------
# homomorphisms between levels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupHom:
    """Homomorphism given by a matrix: target_j = sum_i matrix[j][i] * x_i."""

    source: FinAbGroup
    target: FinAbGroup
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.matrix) != self.target.rank:
            raise GroupError("need one row per target factor")
        for row in self.matrix:
            if len(row) != self.source.rank:
                raise GroupError("row arity mismatch")
        # well-definedness: each source generator's order must kill its image
        for i, n in enumerate(self.source.orders):
            for j, m in enumerate(self.target.orders):
                if self.matrix[j][i] * n % m != 0:
                    raise GroupError("homomorphism not well defined on generators")

    def apply(self, g) -> Element:
        g = self.source.normalize(g)
        return tuple(sum(row[i] * g[i] for i in range(self.source.rank)) % m
                     for row, m in zip(self.matrix, self.target.orders))

    def is_surjective(self) -> bool:
        image = {self.apply(g) for g in self.source.elements()}
        return len(image) == self.target.order()

    def pullback_char(self, chi: GroupChar) -> GroupChar:
        """chi o hom as a character of the source."""
        if chi.group != self.target:
            raise GroupError("character lives on the wrong group")
        m = self.target.exponent()
        exps = []
        for i, n in enumerate(self.source.orders):
            gen = tuple(1 if k == i else 0 for k in range(self.source.rank))
            _, k = chi.value_exponent(self.apply(gen))
            if k * n % m != 0:
                raise GroupError("pullback is not a character (map not well defined)")
            exps.append(k * n // m)
        return GroupChar(self.source, tuple(exps))

    @staticmethod
    def reduction(source: FinAbGroup, target: FinAbGroup) -> "GroupHom":
        """Componentwise x mod m for towers with matching shapes."""
        if source.rank != target.rank:
            raise GroupError("reduction needs equal ranks")
        rows = []
        for j in range(target.rank):
            rows.append(tuple(1 if i == j else 0 for i in range(source.rank)))
        return GroupHom(source, target, tuple(rows))


# ---------------------------------------------------------------------------
# tower description files
# ---------------------------------------------------------------------------

@dataclass
class TowerLevel:
    group: FinAbGroup
    c_action: GroupAutomorphism
    semidirect: SemidirectGroup
    projection: GroupHom | None = None  # onto the previous (coarser) level


@dataclass
class TowerSpec:
    p: int
    levels: list[TowerLevel] = field(default_factory=list)
    source_text: str = ""


class TowerParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _parse_tuple(text: str, line_no: int) -> tuple[int, ...]:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise TowerParseError(line_no, f"expected a tuple like (1,0), got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    try:
        return tuple(int(t) for t in inner.split(","))
    except ValueError:
        raise TowerParseError(line_no, f"non-integer entry in tuple {text!r}") from None


def _parse_tuple_list(text: str, line_no: int) -> list[tuple[int, ...]]:
    out = []
    depth = 0
    cur = ""
    for ch in text:
        if ch == "(":
            depth += 1
        if depth:
            cur += ch
        if ch == ")":
            depth -= 1
            if depth == 0:
                out.append(_parse_tuple(cur, line_no))
                cur = ""
    if depth != 0:
        raise TowerParseError(line_no, "unbalanced parentheses")
    return out


_KNOWN_KEYS = {
    "orders", "c_action", "inertia_p", "inertia_pbar", "gamma_quotient",
    "galois_h", "galois_gl", "project", "subgroup",
}


def parse_tower_file(text: str) -> TowerSpec:
    """Parse the plain-text tower description format.

    Keys per level: orders, c_action, inertia_p, inertia_pbar, gamma_quotient,
    galois_h, galois_gl, project, subgroup.<name>.  Unknown keys are rejected
    with the offending line number.
    """
    p: int | None = None
    levels: list[dict] = []
    current: dict | None = None
    current_line: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section.startswith("level"):
                raise TowerParseError(line_no, f"unknown section {section!r}")
            current = {"_line": line_no}
            current_line = {}
            levels.append(current)
            continue
        if "=" not in line:
            raise TowerParseError(line_no, "expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if current is None:
            if key == "p":
                p = int(value)
                continue
            raise TowerParseError(line_no, f"key {key!r} outside a [level] section")
        base_key = key.split(".", 1)[0]
        if base_key not in _KNOWN_KEYS:
            raise TowerParseError(line_no, f"unknown key {key!r}")
        current[key] = value
        current_line[key] = line_no
    if p is None:
        raise TowerParseError(0, "missing global key p")

    spec = TowerSpec(p=p, source_text=text)
    prev: TowerLevel | None = None
    for lv in levels:
        ln = lv.pop("_line")
        if "orders" not in lv:
            raise TowerParseError(ln, "level is missing orders")
        orders = tuple(int(t) for t in lv.pop("orders").replace(",", " ").split())
        group = FinAbGroup(orders)
        if "c_action" in lv:
            images = _parse_tuple_list(lv.pop("c_action"), ln)
            c_act = GroupAutomorphism(group, tuple(images))
        else:
            c_act = GroupAutomorphism.identity_map(group)
        for place_key, place in (("inertia_p", "p"), ("inertia_pbar", "pbar")):
            if place_key in lv:
                chain_text = lv.pop(place_key)
                chains = [
                    _parse_tuple_list(part, ln)
                    for part in chain_text.split(";")
                ]
                group.add_inertia_chain(place, chains)
        if "gamma_quotient" in lv:
            val = lv.pop("gamma_quotient")
            try:
                order_part, map_part = val.split(":")
                order = int(order_part)
                row = _parse_tuple(map_part, ln)
            except (ValueError, TowerParseError):
                raise TowerParseError(ln, f"bad gamma_quotient {val!r}") from None
            target = FinAbGroup((order,))
            hom = GroupHom(group, target, (row,))
            if not hom.is_surjective():
                raise TowerParseError(ln, "gamma_quotient is not surjective")
            group.set_gamma_quotient(hom)
        for gkey, gname in (("galois_h", "H"), ("galois_gl", "GL")):
            if gkey in lv:
                gens = _parse_tuple_list(lv.pop(gkey), ln)
                group.add_galois_action(gname, GaloisAction(tuple(gens)))
        for key in list(lv):
            if key.startswith("subgroup."):
                name = key.split(".", 1)[1]
                group.add_subgroup_label(name, _parse_tuple_list(lv.pop(key), ln))
        projection = None
        if "project" in lv:
            mode = lv.pop("project")
            if mode != "mod":
                raise TowerParseError(ln, f"unsupported projection {mode!r}")
            if prev is None:
                raise TowerParseError(ln, "first level cannot project")
            projection = GroupHom.reduction(group, prev.group)
            if not projection.is_surjective():
                raise TowerParseError(ln, "projection is not surjective")
        if lv:
            raise TowerParseError(ln, f"unused keys {sorted(lv)}")
        level = TowerLevel(group=group, c_action=c_act,
                           semidirect=SemidirectGroup(group, c_act), projection=projection)
        spec.levels.append(level)
        prev = level
    return spec
