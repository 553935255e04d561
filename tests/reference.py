"""Reference constructions kept as test oracles for the closed forms in
``necsurf.cosets``, ``necsurf.pipeline``, ``necsurf.kernels`` and
``necsurf.presentations``, and for the integer fold of
``necsurf.groups``.

Element arithmetic (``identity``, ``rotation``, ``mul``, ``inverse``,
``order``), the word parser ``parse_word``, the reducers
``reduce_mod_involutions`` and ``free_reduce``, and ``word_character``
live only here: the library folds words and reduces them cyclically
without them, and the tests use them as plain functions, never as
methods put back on library classes."""

import math
from dataclasses import dataclass, replace
from itertools import product

from necsurf import (
    CyclicElement,
    CyclicGroup,
    DihedralElement,
    DihedralGroup,
    FiniteHom,
    NotInKernelError,
    orientation_character,
)
from necsurf.presentations import (
    Presentation,
    RelatorCertificate,
    connector_closed_form,
)
from necsurf.signatures import CONNECTOR, GLIDE
from necsurf.words import Word, cyclic_reduce, substitute


# Element arithmetic in C_m (additive residues) and D_m (normal forms
# t^eps * s^k): the oracle for the integer folds of ``necsurf.groups``.

def identity(group):
    """The identity element of C_m or D_m."""
    if isinstance(group, CyclicGroup):
        return group.element(0)
    return DihedralElement(group.modulus, 0, 0)


def rotation(group, k):
    """The rotation s^k of D_m."""
    return DihedralElement(group.modulus, 0, k)


def mul(a, b):
    """The product a*b of two elements of one C_m or D_m; in D_m by
    (t^e1 s^k1) (t^e2 s^k2) = t^(e1+e2) s^(k2 + (-1)^e2 * k1)."""
    if isinstance(a, CyclicElement):
        return CyclicElement(a.modulus, a.value + b.value)
    sign = -1 if b.flip else 1
    return DihedralElement(a.modulus, a.flip + b.flip, b.rot + sign * a.rot)


def inverse(a):
    """The inverse of an element of C_m or D_m; a reflection is its own."""
    if isinstance(a, CyclicElement):
        return CyclicElement(a.modulus, -a.value)
    return a if a.flip else DihedralElement(a.modulus, 0, -a.rot)


def order(a):
    """The order of an element, by multiplying by it until the identity."""
    power, k = a, 1
    while not power.is_identity():
        power, k = mul(power, a), k + 1
    return k


def element_fold(hom, word):
    """hom(word) as a product of group elements, one per letter: the
    letter's image or its inverse, multiplied on by ``mul``.  The oracle
    for ``FiniteHom.evaluate``."""
    result = identity(hom.target)
    for g, e in word.letters:
        img = hom.image_of(g)
        result = mul(result, img if e == 1 else inverse(img))
    return result


# Words from text, and letter-by-letter reduction: the oracle for
# ``necsurf.words.cyclic_reduce`` and for the free reduction that
# ``SchreierSubgroup.rewrite`` does as it walks.

def parse_word(text: str) -> Word:
    """Parse e.g. ``"tau1 x1^-1 e^2"`` (``*`` also accepted as separator)."""
    letters: list[tuple[str, int]] = []
    for token in text.replace("*", " ").split():
        if "^" in token:
            name, _, exp_text = token.partition("^")
            exp = int(exp_text)
        else:
            name, exp = token, 1
        if not name:
            raise ValueError(f"empty generator name in {text!r}")
        sign = 1 if exp > 0 else -1
        letters.extend((name, sign) for _ in range(abs(exp)))
    return Word(tuple(letters))


def _cancels(a, b, involutions) -> bool:
    """Whether the letters a and b cancel side by side: inverse letters,
    or equal letters of an involution."""
    return a[0] == b[0] and (a[1] == -b[1] or (a[0] in involutions and a[1] == b[1]))


def reduce_mod_involutions(w: Word, involutions=frozenset()) -> Word:
    """Free reduction after rewriting g^-1 -> g for each involution g;
    with no involutions it is the free reduction."""
    stack: list[tuple[str, int]] = []
    for g, e in w.letters:
        letter = (g, 1 if g in involutions else e)
        if stack and _cancels(stack[-1], letter, involutions):
            stack.pop()
        else:
            stack.append(letter)
    return Word(tuple(stack))


def free_reduce(w: Word) -> Word:
    """Cancel adjacent inverse pairs until none remain."""
    return reduce_mod_involutions(w)


def trimmed_reduction(w: Word, involutions=frozenset()) -> Word:
    """``reduce_mod_involutions``, then the letter pairs at the two ends
    trimmed while they cancel: the oracle for ``cyclic_reduce``."""
    letters = reduce_mod_involutions(w, involutions).letters
    while len(letters) > 1 and _cancels(letters[0], letters[-1], involutions):
        letters = letters[1:-1]
    return Word(letters)


def word_character(p: Presentation, w: Word) -> int:
    """Multiplicative extension of the orientation character to words."""
    chars = orientation_character(p)
    value = 1
    for g, _ in w.letters:
        if g not in chars:
            raise KeyError(f"generator {g} has no declared kind")
        value *= chars[g]
    return value


def naive_theta(K):
    """The parity map with the naive connector image e -> 1 and every
    other generator sent to the non-trivial element of C_2."""
    c2 = CyclicGroup(2)
    return FiniteHom.from_dict(
        K, c2, {name: c2.element(name != "e") for name in K.generator_names()}
    )


def theta_through_eta(derived, eta, name):
    """Theta of the K generator ``name``, rebuilt from eta by rewriting:
    rotation(eta(rewrite(g))) when theta(g) = 1, and
    t * rotation(eta(rewrite(tau1 * g))) otherwise."""
    dihedral = DihedralGroup(eta.hom.target.modulus)
    if not derived.subgroup.parity[name]:
        rewritten = derived.subgroup.rewrite(Word.gen(name))
        return rotation(dihedral, eta.hom.evaluate(rewritten).value)
    rewritten = derived.subgroup.rewrite(Word.gen("tau1") * Word.gen(name))
    return mul(dihedral.reflection(0), rotation(dihedral, eta.hom.evaluate(rewritten).value))


def character_factors_through_image(p, hom):
    """Try to define a consistent orientation character on the image.

    Walk the Cayley graph of the image, pushing the character of each
    generator along its edge and keeping one parent edge per element.  A
    sign conflict proves the character does not factor; the two colliding
    tree paths combine into an explicit orientation-reversing kernel word
    (the witness).
    """
    chars = orientation_character(p)
    images = dict(hom.images)
    one = identity(hom.target)
    signs = {one: 1}
    parent: dict = {one: None}  # element -> (previous element, generator)
    frontier = [one]

    def path(elem) -> Word:
        letters = []
        while parent[elem] is not None:
            elem, name = parent[elem]
            letters.append((name, 1))
        return Word(tuple(reversed(letters)))

    while frontier:
        new = []
        for elem in frontier:
            for name, _ in p.generators:
                nxt = mul(elem, images[name])
                sign = signs[elem] * chars[name]
                if nxt not in signs:
                    signs[nxt] = sign
                    parent[nxt] = (elem, name)
                    new.append(nxt)
                elif signs[nxt] != sign:
                    conflict = path(elem) * Word.gen(name)
                    witness = conflict * path(nxt).inverse()
                    witness = reduce_mod_involutions(witness, p.involution_names())
                    return False, witness
        frontier = new
    return True, None


# The general Reidemeister-Schreier construction over a coset table: the
# oracle for the closed form over the transversal {1, tau_1}.

@dataclass(frozen=True)
class CosetTable:
    """Cosets of a kernel, realised as the image subgroup elements, with
    one permutation of coset indices per domain generator: ``forward[g]``
    sends coset i to coset i*g and ``backward[g]`` is its inverse."""

    hom: FiniteHom
    cosets: tuple  # image subgroup elements; index 0 is the identity
    forward: dict[str, tuple[int, ...]]
    backward: dict[str, tuple[int, ...]]

    @property
    def index(self) -> int:
        return len(self.cosets)


def cayley_coset_table(hom: FiniteHom) -> CosetTable:
    """Coset table of ker(hom): cosets are the image subgroup elements,
    discovered breadth-first in declared generator order, and each
    generator acts by right translation (backward: by its inverse)."""
    images = dict(hom.images)
    one = identity(hom.target)
    cosets = [one]
    seen = {one: 0}
    frontier = [one]
    while frontier:
        new = []
        for elem in frontier:
            for name, _ in hom.domain.generators:
                nxt = mul(elem, images[name])
                if nxt not in seen:
                    seen[nxt] = len(cosets)
                    cosets.append(nxt)
                    new.append(nxt)
        frontier = new
    names = hom.domain.generator_names()
    forward = {g: tuple(seen[mul(c, images[g])] for c in cosets) for g in names}
    backward = {g: tuple(seen[mul(c, inverse(images[g]))] for c in cosets) for g in names}
    return CosetTable(hom, tuple(cosets), forward, backward)


@dataclass(frozen=True)
class SchreierGenerator:
    """One non-trivial Schreier generator u * g * rep(u g)^-1."""

    name: str
    coset: int          # transversal index of u
    base_generator: str
    word: Word          # freely reduced word in the ambient generators


@dataclass(frozen=True)
class SchreierSubgroup:
    """Reidemeister-Schreier data for a kernel: transversal, generators,
    derived presentation and the rewriting map into it.  ``pair_names``
    names the Schreier generator of each (coset, generator) pair, or
    None when that generator is freely trivial."""

    base: Presentation
    table: CosetTable
    transversal: tuple[Word, ...]
    generators: tuple[SchreierGenerator, ...]
    presentation: Presentation
    pair_names: dict[tuple[int, str], str | None]

    @property
    def index(self) -> int:
        return self.table.index

    def rewrite(self, w: Word) -> Word:
        """Express a kernel word in the Schreier generators."""
        forward, backward = self.table.forward, self.table.backward
        pair_names = self.pair_names
        out: list[tuple[str, int]] = []
        coset = 0
        for g, e in w.letters:
            if e == 1:
                name = pair_names[(coset, g)]
                if name is not None:
                    out.append((name, 1))
                coset = forward[g][coset]
            else:
                coset = backward[g][coset]
                name = pair_names[(coset, g)]
                if name is not None:
                    out.append((name, -1))
        if coset != 0:
            raise NotInKernelError(f"{w} is not in the kernel (ends at coset {coset})")
        return free_reduce(Word(tuple(out)))


def reidemeister_schreier(p: Presentation, table: CosetTable) -> SchreierSubgroup:
    """Presentation of the kernel from a coset table.

    The transversal is built breadth-first over the reflection generators
    first, then the others in declared order (positive letters before
    negative).  Schreier generators are the non-trivial words
    u * g * rep(u g)^-1 for transversal u and generator g; relators are
    the rewritten conjugates u * R * u^-1 of the base relators.
    """
    alphabet = [
        g for g, kind in sorted(p.generators, key=lambda gk: gk[1].kind != "reflection")
    ]
    index = table.index
    forward, backward = table.forward, table.backward

    reps: list[Word | None] = [None] * index
    reps[0] = Word()
    discovery = [0]
    queue = [0]
    while queue:
        coset = queue.pop(0)
        for g in alphabet:
            for exp, step in ((1, forward), (-1, backward)):
                nxt = step[g][coset]
                if reps[nxt] is None:
                    reps[nxt] = reps[coset] * Word.gen(g, exp)  # type: ignore[operator]
                    discovery.append(nxt)
                    queue.append(nxt)
    if any(rep is None for rep in reps):
        raise ValueError("coset table is not transitive")
    transversal = tuple(reps)  # type: ignore[arg-type]

    pair_names: dict[tuple[int, str], str | None] = {}
    generators: list[SchreierGenerator] = []
    counter = 0
    for coset in discovery:
        for g, _ in p.generators:
            target = forward[g][coset]
            word = free_reduce(transversal[coset] * Word.gen(g) * transversal[target].inverse())
            if not word.letters:
                pair_names[(coset, g)] = None
            else:
                counter += 1
                name = f"s{counter}"
                pair_names[(coset, g)] = name
                generators.append(SchreierGenerator(name, coset, g, word))

    kinds = {
        gen.name: (GLIDE if word_character(p, gen.word) == -1 else CONNECTOR)
        for gen in generators
    }
    derived = Presentation(
        tuple((gen.name, kinds[gen.name]) for gen in generators), ()
    )
    subgroup = SchreierSubgroup(p, table, transversal, tuple(generators), derived, pair_names)

    relators: list[Word] = []
    seen_relators: set[tuple[tuple[str, int], ...]] = set()
    for coset in discovery:
        u = transversal[coset]
        for rel in p.relators:
            conjugate = free_reduce(u * rel * u.inverse())
            rewritten = subgroup.rewrite(conjugate)
            if rewritten.letters and rewritten.letters not in seen_relators:
                seen_relators.add(rewritten.letters)
                relators.append(rewritten)

    return replace(subgroup, presentation=Presentation(derived.generators, tuple(relators)))


# Rewriting by building each conjugate: the oracle for the walk from
# coset 1 in ``necsurf.cosets`` and ``necsurf.pipeline``.

def conjugate_relators(sub) -> tuple[Word, ...]:
    """The derived relators of the closed-form ``sub``, each rewritten
    from the freely reduced conjugate u * R * u^-1 for u = 1, then
    u = tau_1, de-duplicated in that order."""
    tau1 = Word.gen(sub.base.generators_of_kind("reflection")[0])
    relators: list[Word] = []
    for u in (Word(), tau1):
        for rel in sub.base.relators:
            rewritten = sub.rewrite(free_reduce(u * rel * u.inverse()))
            if rewritten.letters and rewritten not in relators:
                relators.append(rewritten)
    return tuple(relators)


def conjugate_rewrite(sub, w: Word) -> Word:
    """rewrite(tau_1 * w * tau_1), building the conjugate."""
    tau1 = Word.gen(sub.base.generators_of_kind("reflection")[0])
    return sub.rewrite(tau1 * w * tau1)


# Matching by a scan over every rotation of every relator: the oracle for
# the least-rotation index of ``necsurf.presentations``.

def cyclically_equal(
    a: Word, b: Word, involutions: frozenset[str] | set[str] = frozenset()
) -> bool:
    """Equality of cyclic words modulo rotation (after involution-aware
    cyclic reduction of both sides)."""
    a = cyclic_reduce(a, involutions)
    b = cyclic_reduce(b, involutions)
    if len(a) != len(b):
        return False
    letters = a.letters
    return any(
        letters[k:] + letters[:k] == b.letters for k in range(max(len(letters), 1))
    )


def scan_derived_relators(p: Presentation, words, substitution) -> tuple:
    """``verify_derived_relators`` with a linear scan: each normal form is
    compared, by ``cyclically_equal``, with every remaining relator and
    its inverse in relator order, and the first hit is the match."""
    involutions = p.involution_names()
    elimination = connector_closed_form(p)

    def normalise(w: Word) -> Word:
        return cyclic_reduce(substitute(w, elimination), involutions)

    remaining = [rel for rel in map(normalise, p.relators) if rel.letters]
    certs = []
    for word in words:
        normal = normalise(substitute(word, substitution))
        if not normal.letters:
            certs.append(RelatorCertificate(word, "trivial"))
            continue
        for rel in remaining:
            if cyclically_equal(normal, rel, involutions) or cyclically_equal(
                normal, rel.inverse(), involutions
            ):
                certs.append(RelatorCertificate(word, "matches-relator", rel))
                break
        else:
            certs.append(RelatorCertificate(word, "unresolved"))
    return tuple(certs)


# The relator search for the connector: the oracle for the closed form
# e = x_1^-1...x_gamma^-1 in ``necsurf.presentations``.

def search_connector_elimination(p: Presentation) -> dict[str, Word] | None:
    """Solve the unique relator containing the connector exactly once for
    the connector (a Tietze elimination), if there is such a relator."""
    connectors = p.generators_of_kind("connector")
    if len(connectors) != 1:
        return None
    e = connectors[0]
    for rel in p.relators:
        positions = [i for i, (g, _) in enumerate(rel.letters) if g == e]
        if len(positions) != 1:
            continue
        i = positions[0]
        prefix = Word(rel.letters[:i])
        suffix = Word(rel.letters[i + 1:])
        replacement = (suffix * prefix).inverse()
        if rel.letters[i][1] == -1:
            replacement = replacement.inverse()
        return {e: replacement}
    return None


# The unpruned product-space filter: the oracle for the pruned search in
# ``necsurf.pipeline``.

def unpruned_epimorphisms(gamma, periods, order):
    """Every surface-kernel epimorphism (d, x) of (gamma; -; [periods])
    onto C_order, by filtering the full product space in lexicographic
    order: odd glide images, elliptic images of exactly their period, the
    long relator summing to zero, and images generating C_order."""
    found = []
    for tup in product(range(order), repeat=gamma + len(periods)):
        d, x = tup[:gamma], tup[gamma:]
        if any(v % 2 == 0 for v in d):
            continue
        if any(order // math.gcd(v, order) != n for v, n in zip(x, periods)):
            continue
        if (sum(x) + 2 * sum(d)) % order != 0:
            continue
        if math.gcd(order, *tup) != 1:
            continue
        found.append((d, x))
    return found
