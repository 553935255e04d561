"""Reference constructions kept as test oracles for the closed forms in
``necsurf.cosets``, ``necsurf.pipeline`` and ``necsurf.presentations``,
for the normal forms of ``necsurf.groups`` and the relator checks built
on them, for the common-denominator area sums of ``necsurf.signatures``,
for the signature ``pipeline.derive_delta_hat`` claims for the derived
kernel (``kernel_signature_index2``, the general index-2 computation),
and for the closed-form H1 of the derived kernel (``abelianization``,
with the integer ``smith_normal_form`` it calls), for the
named-source relator check (``index_derived_relators``, matching against
every relator of K), for the closed-form check of rho in
``pipeline.validate_action`` (``rho_problems_by_presentation``, on Delta's
presentation) and for eta's checks in ``pipeline.construct_eta``, which
read the relators off the frame (``surface_kernel_problems``, every
relator walked), and for the closed-form descent of
``pipeline.first_smooth_epimorphism`` (``walked_first``, the memoised
walk over candidate lists).  The walks that the frame's one path
replaced are the oracles of that path, each kept nowhere: a ``cosets.schreier_frame``
derived from any K (``unkept_reidemeister_schreier``), the lemma on a
subgroup's own words, with a witness it rewrites and looks up itself
(``own_word_lemma``), Theta and eta with every
relator of K or of the derived kernel walked (``walked_theta``,
``walked_eta``), one shape's classical relators with each corner row a
power named for K's corner (``printed_relator_words``), and all of them
in turn (``oracle_certificate``); they solve the long relator for the
connector themselves (``connector_elimination``, checked against the
relator search ``search_connector_elimination``).  ``oracle_document``
builds a certificate's whole document as one dict, key by key, the oracle of
``necsurf.certificate.render``, which splices a shape's encoded keys
with each call's.  ``FiniteHom`` is a homomorphism with its images
named, each checked at construction to be an element of its target, and
``named_walk`` the relator check that evaluates each relator by name:
the oracles of the library's tuples in generator order and of its
indexed ``check_homomorphism``.  ``theta_hom`` names theta's bits and
``rebuilt_hom`` a tuple of the rho stage, Theta's rotations or eta's
residues, as the ``FiniteHom`` it stands for, the form in which the
tests read it.
``replace`` rebuilds a result with some of its fields changed, through
the constructor.

Element arithmetic on plain values, a residue in C_m and a pair
(eps, k) in D_m (``identity``, ``rotation``, ``mul``, ``inverse``,
``order``, each given the group, and the letter-by-letter
``element_fold``), the word parser ``parse_word``, the reducers
``reduce_mod_involutions`` and ``free_reduce``, the whole-word
``substitute`` and ``cyclic_reduce``, ``orientation_character`` and
``word_character`` live only
here: the library evaluates words and reduces them cyclically without
them, and the tests use them as plain functions, never as methods put
back on library classes."""

import inspect
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate, product

from necsurf import abelian, cosets, pipeline
from necsurf import (
    CyclicGroup,
    DihedralGroup,
    NECSignature,
    NotInKernelError,
    canonical_presentation,
    quotient_disc_signature,
    reduced_area,
    validate_action,
    verify_derived_relators,
)
from necsurf.kernels import KernelSignatureReport
from necsurf.presentations import Presentation
from necsurf.signatures import CONNECTOR, GLIDE, area_terms
from necsurf.words import Record, Word, cyclic_reduce_letters, substitute_letters


class NoSurfaceKernelError(ValueError):
    """No torsion-free surface kernel of the requested index exists."""


def surface_kernel_genus(sig: NECSignature, index: int) -> int:
    """Genus of a torsion-free orientable surface kernel of given index.

    Solves 2g - 2 = index * reduced_area(sig) and insists the right-hand
    side is a positive even integer; otherwise no surface kernel of this
    index exists.
    """
    area = reduced_area(sig)
    if area <= 0:
        raise ValueError(f"signature {sig} is not hyperbolic (reduced area {area})")
    doubled = index * area
    if doubled.denominator != 1 or doubled.numerator % 2 != 0:
        raise NoSurfaceKernelError(
            f"no surface kernel of index {index} exists for {sig}: "
            f"2g-2 = {doubled} is not a positive even integer"
        )
    return doubled.numerator // 2 + 1


def replace(obj, **changes):
    """A new ``type(obj)`` built by its constructor from ``obj``'s values,
    with ``changes`` in place of some: each constructor parameter is read
    off ``obj`` as the attribute of that name.  A change naming no
    parameter raises ``TypeError``, as the constructor does."""
    values = {name: getattr(obj, name) for name in inspect.signature(type(obj)).parameters}
    return type(obj)(**{**values, **changes})


def with_frame(shape, **changes):
    """``shape`` with the certificate of its frame, which its derived
    subgroup holds, replaced by a copy with ``changes``."""
    sub = shape.derived.subgroup
    subgroup = replace(sub, frame=replace(sub.frame, **changes))
    return replace(shape, derived=replace(shape.derived, subgroup=subgroup))


# Element arithmetic in C_m (residues in range(m)) and D_m (pairs
# (eps, k) for t^eps * s^k), one product per call: the oracle for the
# normal forms of ``necsurf.groups``.

def identity(group):
    """The identity element of C_m or D_m."""
    return 0 if isinstance(group, CyclicGroup) else (0, 0)


def rotation(group, k):
    """The rotation s^k of D_m."""
    return 0, k % group.modulus


def mul(group, a, b):
    """The product a*b of two elements of ``group``, C_m or D_m; in D_m by
    (t^e1 s^k1) (t^e2 s^k2) = t^(e1+e2) s^(k2 + (-1)^e2 * k1)."""
    if isinstance(group, CyclicGroup):
        return (a + b) % group.modulus
    (e1, k1), (e2, k2) = a, b
    return (e1 + e2) % 2, (k2 - k1 if e2 else k2 + k1) % group.modulus


def inverse(group, a):
    """The inverse of an element of C_m or D_m; a reflection is its own."""
    if isinstance(group, CyclicGroup):
        return -a % group.modulus
    return a if a[0] else rotation(group, -a[1])


def order(group, a):
    """The order of an element, by multiplying by it until the identity."""
    one = identity(group)
    power, k = a, 1
    while power != one:
        power, k = mul(group, power, a), k + 1
    return k


def element_fold(hom, word):
    """hom(word) as a product of group elements, one per letter: the
    letter's image or its inverse, multiplied on by ``mul``.  The oracle
    for ``FiniteHom.evaluate``."""
    group = hom.target
    result = identity(group)
    for g, e in word.letters:
        img = hom.image_of(g)
        result = mul(group, result, img if e == 1 else inverse(group, img))
    return result


def elementwise_failures(p: Presentation, hom):
    """Each relator of ``p`` that ``element_fold`` does not send to the
    identity, with the element it is sent to, in relator order: the
    oracle for ``check_homomorphism``."""
    failures = []
    for rel in p.relators:
        value = element_fold(hom, rel)
        if value != identity(hom.target):
            failures.append((rel, value))
    return tuple(failures)


# Homomorphisms with named images, and the relator check by name: the
# oracles of the library's image tuples in generator order and of its
# indexed ``check_homomorphism``.

class GroupMismatchError(ValueError):
    """An element does not belong to the group it is used in."""


def is_element(group, x) -> bool:
    """Whether ``x`` is an element of ``group`` as a plain value: in C_m an
    ``int`` (not a ``bool``) in ``range(m)``, in D_m a tuple (eps, k) of
    such, eps in ``range(2)``."""
    def residue(v, m):
        return type(v) is int and 0 <= v < m

    if isinstance(group, CyclicGroup):
        return residue(x, group.modulus)
    return type(x) is tuple and len(x) == 2 and residue(x[0], 2) and residue(x[1], group.modulus)


class FiniteHom(Record):
    """A homomorphism from a finitely presented group to a finite group,
    given by its generator images, each with its generator's name.
    Construction checks that exactly the domain's generators have images
    (else ``ValueError`` names the missing and the undeclared ones) and
    that every image is an element of ``target`` (else
    ``GroupMismatchError`` names the first generator whose image is not);
    whether the images satisfy the relators is ``named_walk``'s to check.
    The name -> image lookup is a slot outside ``_fields``, so comparison
    and hashing ignore it."""

    __slots__ = ("domain", "target", "images", "_by_name")
    _fields = __slots__[:3]

    def __init__(self, domain: Presentation, target, images) -> None:
        images, names = tuple(images), domain.generator_names()
        by_name = dict(images)
        if (declared := set(names)) != (assigned := set(by_name)):
            raise ValueError(
                f"generator images do not match the domain: missing images for"
                f" {sorted(declared - assigned)}, images for undeclared generators"
                f" {sorted(assigned - declared)}"
            )
        for g, img in images:
            if not is_element(target, img):
                raise GroupMismatchError(
                    f"image {img!r} of generator {g} is not an element of {target}")
        self._assign(domain, target, images)
        self._keep("_by_name", by_name)

    @classmethod
    def from_dict(cls, domain, target, images: dict) -> "FiniteHom":
        """The homomorphism with these images, put in the domain's
        generator order; any image for an undeclared generator follows,
        for construction to reject."""
        rest = dict(images)
        ordered = [(g, rest.pop(g)) for g, _ in domain.generators if g in rest]
        return cls(domain, target, (*ordered, *rest.items()))

    def image_of(self, name: str):
        return self._by_name[name]

    def evaluate(self, word: Word):
        """Image of a word: the target's normal form of its letters, each
        image looked up by name."""
        return self.target.normal_form(self._by_name, word.letters)

    def image_order(self) -> int:
        return self.target.subgroup_order(v for _, v in self.images)


def named_walk(p: Presentation, hom: FiniteHom):
    """Each relator of ``p`` that ``hom`` does not send to the identity,
    with the element it is sent to, in relator order, each evaluated by
    name (``FiniteHom.evaluate``): the named path that the library's
    indexed ``check_homomorphism`` replaced."""
    one = hom.target.identity
    return tuple((rel, value) for rel in p.relators if (value := hom.evaluate(rel)) != one)


def rebit(K: Presentation, theta, **bits) -> tuple:
    """Theta's bits, in K's generator order, with ``bits`` in place of
    the named generators' own."""
    return tuple(bits.get(g, bit) for g, bit in zip(K.generator_names(), theta, strict=True))


def theta_hom(K: Presentation, theta) -> FiniteHom:
    """Theta's bits, in K's generator order, as the ``FiniteHom`` K -> C_2
    they stand for."""
    return FiniteHom(K, CyclicGroup(2), zip(K.generator_names(), theta, strict=True))


# Areas one Fraction per term: the oracle for the common-denominator sums
# of ``necsurf.signatures.reduced_area``, and the derived kernel's genus
# by the same bookkeeping.

def termwise_area(sig) -> Fraction:
    """mu/2pi = alpha*g + k - 2 + sum(1 - 1/m) + (1/2) * sum over cycle
    entries (1 - 1/n), adding one ``Fraction`` per period."""
    alpha = 2 if sig.orientable else 1
    total = Fraction(alpha * sig.genus + len(sig.period_cycles) - 2)
    for m in sig.proper_periods:
        total += Fraction(m - 1, m)
    for cycle in sig.period_cycles:
        for n in cycle:
            total += Fraction(n - 1, 2 * n)
    return total


def termwise_kernel_genus(base, periods, orientable) -> Fraction:
    """The genus of an index-2, reflection-free kernel of ``base`` with
    these proper periods: (2*area(base) + 2 - sum(1 - 1/m)) / alpha, each
    term its own ``Fraction``."""
    cone_sum = sum((Fraction(m - 1, m) for m in periods), Fraction(0))
    return (2 * termwise_area(base) + 2 - cone_sum) / (2 if orientable else 1)


# The signature of the derived kernel read off its Schreier subgroup by the
# general index-2 formula: the oracle for the signature that
# ``necsurf.pipeline.derive_delta_hat`` claims.

def kernel_signature_index2(sub) -> KernelSignatureReport:
    """Signature of the index-2 kernel ``sub`` that ``reidemeister_schreier``
    returns.

    With the reflections gone the kernel has no boundary, and its proper
    periods are the orders of its torsion words.  It is orientable exactly
    when no Schreier generator has orientation character -1.  The genus is
    (area - cone) / alpha, where the area is twice K's, cone is the reduced
    area -2 + sum(1 - 1/m) of the sphere with the kernel's cone points,
    and alpha = 2 for an orientable kernel and 1 otherwise, by exact area
    bookkeeping.
    """
    orientable = all(kind.character == 1 for _, kind in sub.presentation.generators)
    periods = tuple(sorted(n for _, n in sub.presentation.torsion_words))

    alpha = 2 if orientable else 1
    cone = reduced_area(NECSignature(True, 0, periods))
    genus, remainder = divmod(2 * reduced_area(sub.base.signature) - cone, alpha)
    if remainder:
        raise ValueError(f"non-integral genus {genus + remainder / alpha} from area bookkeeping")

    signature = NECSignature(
        orientable=orientable, genus=genus, proper_periods=periods, period_cycles=()
    )
    return KernelSignatureReport(signature=signature)


# Words from text, and letter-by-letter reduction: the oracle for
# ``necsurf.words.cyclic_reduce_letters`` and for the free reduction that
# ``SchreierSubgroup.rewrite`` does as it walks.  ``substitute`` and
# ``cyclic_reduce`` are the library's letter functions on whole words.

def substitute(w: Word, mapping: dict[str, Word]) -> Word:
    """Replace each letter by its image word; unmapped names pass through."""
    return Word(tuple(substitute_letters(w.letters, mapping)))


def cyclic_reduce(w: Word, involutions=frozenset()) -> Word:
    """``w`` reduced as a cyclic word, with g^-1 read as g for each
    involution g."""
    return Word(cyclic_reduce_letters(w.letters, involutions))


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


def orientation_character(p: Presentation) -> dict[str, int]:
    """The generator -> {+1, -1} map induced by the declared kinds."""
    return {g: kind.character for g, kind in p.generators}


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
    """The parity map's bits with the naive connector image e -> 1 and
    every other generator sent to the non-trivial element of C_2."""
    return tuple(int(name != "e") for name in K.generator_names())


def theta_through_eta(derived, eta: FiniteHom, name):
    """Theta of the K generator ``name``, rebuilt from eta by rewriting:
    rotation(eta(rewrite(g))) when theta(g) = 1, and
    t * rotation(eta(rewrite(tau1 * g))) otherwise."""
    dihedral = DihedralGroup(eta.target.modulus)
    if not derived.subgroup.parity[name]:
        rewritten = derived.subgroup.rewrite(Word.gen(name))
        return rotation(dihedral, eta.evaluate(rewritten))
    rewritten = derived.subgroup.rewrite(Word.gen("tau1") * Word.gen(name))
    return mul(dihedral, (1, 0), rotation(dihedral, eta.evaluate(rewritten)))


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
                nxt = mul(hom.target, elem, images[name])
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
    group = hom.target
    one = identity(group)
    cosets = [one]
    seen = {one: 0}
    frontier = [one]
    while frontier:
        new = []
        for elem in frontier:
            for name, _ in hom.domain.generators:
                nxt = mul(group, elem, images[name])
                if nxt not in seen:
                    seen[nxt] = len(cosets)
                    cosets.append(nxt)
                    new.append(nxt)
        frontier = new
    names = hom.domain.generator_names()
    forward = {g: tuple(seen[mul(group, c, images[g])] for c in cosets) for g in names}
    backward = {
        g: tuple(seen[mul(group, c, inverse(group, images[g]))] for c in cosets) for g in names
    }
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


def conjugate_rewrite(sub, w: Word, coset: int) -> Word:
    """rewrite(u * w * u^-1) for u = 1 (coset 0) or u = tau_1 (coset 1),
    building the freely reduced conjugate."""
    u = Word.gen(sub.base.generators_of_kind("reflection")[0], coset)
    return sub.rewrite(free_reduce(u * w * u.inverse()))


# Matching a word against every relator, with the connector eliminated:
# the oracles for ``necsurf.presentations.verify_derived_relators``, which
# compares each word with its one named source relator, at its named
# rotation, instead.  The least-rotation index is checked against the scan
# over every rotation of every relator.

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


def index_derived_relators(p: Presentation, words, substitution) -> tuple:
    """Certify each of ``words`` against every relator of ``p``, as a
    (status, matched) pair: substitute, replace the connector by its
    closed form x_1^-1...x_gamma^-1, reduce cyclically, freely and modulo
    the involutions, then accept an empty word ("trivial", None) or an
    exact cyclic match with one of the remaining relators or an inverse
    ("matches-relator", that relator's normal form), else ("unresolved",
    None).  The relators of ``p`` are normalised once for the whole batch
    and indexed by the least rotation (``min`` over the rotations) of each
    normal form and of the cyclic reduction of its inverse, first relator
    first, so each word costs one lookup and is matched with the first
    relator that a scan in relator order would find."""
    involutions = p.involution_names()
    elimination = connector_elimination(p)

    def normalise(w: Word) -> Word:
        return cyclic_reduce(substitute(w, elimination), involutions)

    def rotation_key(letters):
        return min(letters[k:] + letters[:k] for k in range(len(letters)))

    by_rotation: dict[tuple[tuple[str, int], ...], Word] = {}
    for rel in map(normalise, p.relators):
        if rel.letters:
            by_rotation.setdefault(rotation_key(rel.letters), rel)
            inverse = cyclic_reduce(rel.inverse(), involutions)
            by_rotation.setdefault(rotation_key(inverse.letters), rel)

    def certify(word: Word) -> tuple[str, Word | None]:
        normal = normalise(substitute(word, substitution))
        if not normal.letters:
            return "trivial", None
        rel = by_rotation.get(rotation_key(normal.letters))
        return ("unresolved", None) if rel is None else ("matches-relator", rel)

    return tuple(map(certify, words))


def scan_derived_relators(p: Presentation, words, substitution) -> tuple:
    """``index_derived_relators`` with a linear scan: each normal form is
    compared, by ``cyclically_equal``, with every remaining relator and
    its inverse in relator order, and the first hit is the match."""
    involutions = p.involution_names()
    elimination = connector_elimination(p)

    def normalise(w: Word) -> Word:
        return cyclic_reduce(substitute(w, elimination), involutions)

    remaining = [rel for rel in map(normalise, p.relators) if rel.letters]
    certs = []
    for word in words:
        normal = normalise(substitute(word, substitution))
        if not normal.letters:
            certs.append(("trivial", None))
            continue
        for rel in remaining:
            if cyclically_equal(normal, rel, involutions) or cyclically_equal(
                normal, rel.inverse(), involutions
            ):
                certs.append(("matches-relator", rel))
                break
        else:
            certs.append(("unresolved", None))
    return tuple(certs)


# The connector's closed form e = x_1^-1...x_gamma^-1, written here from
# p's own names, and the relator search that checks it: the oracles for
# the frame record's ``connector``.

def connector_elimination(p: Presentation) -> dict[str, Word]:
    """The connector solved from the long relator x_gamma...x_1*e (a
    Tietze elimination): e = x_1^-1...x_gamma^-1, over the interior
    points in p's generator order."""
    solved = Word(tuple((g, -1) for g, kind in p.generators if kind.kind == "elliptic"))
    return {g: solved for g, kind in p.generators if kind.kind == "connector"}


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


# The surface-kernel conditions with every relator walked: the oracle for
# the frame-read checks of ``necsurf.pipeline.construct_eta``.

def surface_kernel_problems(pres: Presentation, hom: FiniteHom, label: str) -> list[str]:
    """Every way ``hom`` fails to be a surface-kernel epimorphism of
    ``pres`` onto a cyclic group C_2n, one item each and in this order,
    every relator walked: the oracle for the reasons of
    ``pipeline.construct_eta``, and of ``pipeline.validate_action`` through
    ``rho_problems_by_presentation``:
    relators that do not map to the identity, non-surjectivity (the image
    order is a gcd), torsion words whose image has lost order, and images
    whose parity differs from their generator's orientation character.
    For a surjective map onto C_2n the last condition is exactly the
    orientation character factoring through the image, so with no item
    the kernel is a torsion-free Fuchsian surface group."""
    problems = [
        f"{label} is not a homomorphism: relator {rel} maps to {pipeline.decimal(value)}"
        for rel, value in named_walk(pres, hom)
    ]
    if hom.image_order() != hom.target.order:
        problems.append(f"{label} is not surjective onto C_{pipeline.decimal(hom.target.modulus)}")
    for word, n in pres.torsion_words:
        image = hom.evaluate(word)
        order = hom.target.element_order(image)
        if order != n:
            problems.append(
                f"torsion collapse: {word} image {pipeline.decimal(image)} has order"
                f" {pipeline.decimal(order)}, declared {n}"
            )
    for name, kind in pres.generators:
        v = hom.image_of(name)
        if v % 2 != (kind.character == -1):
            problems.append(
                f"orientation mismatch: {kind.kind} image {name} -> {pipeline.decimal(v)} is"
                f" {'odd' if v % 2 else 'even'}"
            )
    return problems


# rho checked on Delta's presentation: the oracle for the closed-form
# conditions of ``necsurf.pipeline.validate_action``.

def rho_problems_by_presentation(datum):
    """The reasons and the genus of the presentation-based check of rho:
    Delta built by ``canonical_presentation``, rho as a ``FiniteHom`` on
    it, the reasons of ``surface_kernel_problems`` and the genus
    of ``surface_kernel_genus`` at index 2n.  For a datum whose shape and
    image counts ``validate_action`` accepts."""
    sig = datum.delta_signature()
    delta = canonical_presentation(sig)
    images = dict(zip(delta.generators_of_kind("glide"), datum.d_images))
    images.update(zip(delta.generators_of_kind("elliptic"), datum.x_images))
    rho = FiniteHom.from_dict(delta, CyclicGroup(datum.order), images)
    return surface_kernel_problems(delta, rho, "rho"), surface_kernel_genus(sig, datum.order)


# The unpruned product-space filter, the loop over the glide product and
# the walk over candidate lists: the oracles for the searches in
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


def product_loop_epimorphisms(gamma, periods, order):
    """The enumeration as a loop over the full glide product, for an
    admissible shape: the oracle for the glide-prefix states of
    ``necsurf.pipeline.enumerate_smooth_epimorphisms``.  The elliptic
    product is grouped by its sum mod order, each tuple with its gcd with
    order; each glide tuple in lexicographic order then meets the elliptic
    tuples that close the long relator, keeping those whose gcds are
    coprime."""
    glides = [range(1, order, 2)] * gamma
    elliptic = [[order // p * u for u in range(1, p) if math.gcd(u, p) == 1] for p in periods]
    by_sum = {}
    for x_images in product(*elliptic):
        by_sum.setdefault(sum(x_images) % order, []).append(
            (x_images, math.gcd(order, *x_images))
        )
    found = []
    for d_images in product(*glides):
        closing = by_sum.get(-2 * sum(d_images) % order)
        if closing:
            d_gcd = math.gcd(order, *d_images)
            found += [(d_images, x) for x, x_gcd in closing if math.gcd(d_gcd, x_gcd) == 1]
    return tuple(found)


def walked_first(gamma, periods, order):
    """The images of the lexicographically first epimorphism, or None, by
    the memoised depth-first walk over the candidate images: the oracle
    for the closed-form descent of ``necsurf.pipeline.first_smooth_epimorphism``.
    Each letter d_1..d_gamma, x_1..x_r has its weight in the long relator
    and its candidates in increasing order: the odd residues for a glide,
    and (order/p)*u for the units u mod a period p.  The state after k
    letters is (k, relator sum mod order, gcd of order and the images so
    far), and a state found to have no completion is never expanded
    again, so the walk expands at most (gamma + r) * order * tau(order)
    states, tau counting divisors.  It keeps an explicit stack, so gamma
    is not bounded by the recursion limit."""
    letters = [(2, range(1, order, 2))] * gamma + [
        (1, [order // p * u for u in range(1, p) if math.gcd(u, p) == 1]) for p in periods
    ]
    last = len(letters) - 1
    dead = set()
    # one frame per letter on the path: (total, gcd) before it, and the
    # index of its next candidate, so its chosen image is the one before
    stack = [(0, order, 0)]
    while stack:
        total, g, i = stack.pop()
        k = len(stack)
        weight, choices = letters[k]
        while i < len(choices):
            value = choices[i]
            i += 1
            child = ((total + weight * value) % order, math.gcd(g, value))
            if k == last:
                if child == (0, 1):
                    images = [letters[j][1][nxt - 1] for j, (*_, nxt) in enumerate(stack)]
                    images.append(value)
                    return images
            elif (k + 1, *child) not in dead:
                stack.append((total, g, i))
                stack.append((*child, 0))
                break
        else:
            dead.add((k, total, g))
    return None


# Abelianization of a whole presentation by unit-pivot elimination, then
# the Smith form of the small core that is left.  ``abelianization`` looks
# ``smith_normal_form`` up in this module, so a test can record the core it
# receives by patching it here.

Matrix = list[list[int]]


def smith_normal_form(m: Matrix) -> tuple[Matrix, Matrix]:
    """Integer Smith normal form, over Python integers so that every
    identity is exact: return (D, V) with D diagonal, each diagonal entry
    dividing the next, V unimodular and U*M*V = D for some unimodular U;
    row operations act on the working matrix only, so U is never formed."""
    a = [[int(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_sub(i: int, j: int, q: int) -> None:  # row_i -= q * row_j
        for t in range(cols):
            a[i][t] -= q * a[j][t]

    def col_sub(i: int, j: int, q: int) -> None:  # col_i -= q * col_j
        for t in range(rows):
            a[t][i] -= q * a[t][j]
        for t in range(cols):
            v[t][i] -= q * v[t][j]

    def swap_cols(i: int, j: int) -> None:
        for t in range(rows):
            a[t][i], a[t][j] = a[t][j], a[t][i]
        for t in range(cols):
            v[t][i], v[t][j] = v[t][j], v[t][i]

    t = 0
    while t < min(rows, cols):
        # smallest nonzero entry of the working submatrix becomes the pivot
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot != (t, t):
            if pivot[0] != t:
                a[pivot[0]], a[t] = a[t], a[pivot[0]]
            if pivot[1] != t:
                swap_cols(pivot[1], t)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]

        dirty = False
        for i in range(t + 1, rows):
            if a[i][t]:
                row_sub(i, t, a[i][t] // a[t][t])
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j]:
                col_sub(j, t, a[t][j] // a[t][t])
                if a[t][j]:
                    dirty = True
        if dirty:
            continue  # a strictly smaller pivot appeared; redo this step

        # divisibility: the pivot must divide the rest of the submatrix
        fixed = True
        for i in range(t + 1, rows):
            bad = next((j for j in range(t + 1, cols) if a[i][j] % a[t][t]), None)
            if bad is not None:
                row_sub(t, i, -1)  # row_t += row_i, exposing the bad entry
                fixed = False
                break
        if not fixed:
            continue
        t += 1

    return a, v


def _eliminate_units(
    rows: dict[int, dict[int, int]], holders: list[set[int]]
) -> list[tuple[int, dict[int, int]]]:
    """Tietze elimination on sparse relator rows, in place.

    While some row has a +-1 entry s at generator g, the row says
    g = -s * (rest of the row): substitute that into every other row
    holding g and drop the pivot row.  Rows are taken shortest first from
    a heap that each changed row re-enters, so no step rescans the alive
    rows; within a row the unit column held by the fewest rows is the
    pivot (a Markowitz-style choice that limits fill-in).  ``holders[j]``
    is the set of rows holding column j.  Returns the substitutions
    (g, {h: coefficient}) in elimination order; each expresses g through
    columns that were not yet eliminated when it was made.
    """
    substitutions: list[tuple[int, dict[int, int]]] = []
    heap = [(len(row), r) for r, row in rows.items()]
    heapify(heap)
    while heap:
        length, r = heappop(heap)
        row = rows.get(r)
        if row is None or len(row) != length:
            continue  # eliminated, or re-queued with its new length
        units = [j for j, x in row.items() if x in (1, -1)]
        if not units:
            continue
        g = min(units, key=lambda j: len(holders[j]))
        s = row[g]
        del rows[r]
        for j in row:
            holders[j].discard(r)
        expr = {h: -s * x for h, x in row.items() if h != g}
        substitutions.append((g, expr))
        for t in holders[g]:
            other = rows[t]
            q = other.pop(g)
            for h, x in expr.items():
                y = other.get(h, 0) + q * x
                if y:
                    other[h] = y
                    holders[h].add(t)
                else:
                    del other[h]
                    holders[h].discard(t)
            if other:
                heappush(heap, (len(other), t))
            else:
                del rows[t]
        holders[g].clear()
    return substitutions


def abelianization(p: Presentation) -> abelian.Abelianization:
    """Abelianize by unit-pivot elimination, then Smith form on the core:
    the oracle for the closed-form H1 of ``necsurf.pipeline.lemma1_check``.

    Each relator becomes a sparse exponent row.  ``_eliminate_units``
    removes one generator per +-1 pivot (after Havas, Holt and Rees,
    "Recognizing badly presented Z-modules", 1993); each eliminated
    generator is a coordinate of modulus 1.  A surviving generator that
    no remaining row holds is free.  Only the columns the remaining rows
    still hold, the core, go to ``smith_normal_form``; its diagonal gives
    their moduli.  Coordinates run: eliminated generators, core diagonal,
    free generators, so ``moduli`` has one entry per generator.
    """
    names = p.generator_names()
    index = {g: i for i, g in enumerate(names)}
    rows: dict[int, dict[int, int]] = {}
    holders: list[set[int]] = [set() for _ in names]
    for r, rel in enumerate(p.relators):
        row = {index[g]: e for g, e in rel.exponent_sums().items() if e}
        if row:
            rows[r] = row
            for j in row:
                holders[j].add(r)
    substitutions = _eliminate_units(rows, holders)

    eliminated = {g for g, _ in substitutions}
    core = [j for j in range(len(names)) if holders[j]]
    free = [j for j in range(len(names)) if j not in eliminated and not holders[j]]
    d, v = smith_normal_form([[row.get(j, 0) for j in core] for row in rows.values()])
    diag = [d[i][i] for i in range(min(len(d), len(core)))]
    moduli = (1,) * len(eliminated) + tuple(diag) + (0,) * (len(core) - len(diag) + len(free))

    def reduced(vec: dict[int, int]) -> dict[int, int]:
        out = {}
        for j, x in vec.items():
            m = moduli[j]
            x = x % m if m > 0 else x
            if x:
                out[j] = x
        return out

    start = len(eliminated)
    vectors: dict[int, dict[int, int]] = {}
    for i, j in enumerate(core):
        vectors[j] = reduced({start + k: x for k, x in enumerate(v[i])})
    start += len(core)
    for i, j in enumerate(free):
        vectors[j] = {start + i: 1}
    for g, expr in reversed(substitutions):
        vec: dict[int, int] = {}
        for h, x in expr.items():
            for k, y in vectors[h].items():
                vec[k] = vec.get(k, 0) + x * y
        vectors[g] = reduced(vec)
    return abelian.Abelianization(
        moduli, {g: tuple(sorted(vectors[i].items())) for g, i in index.items()}
    )


# Every relator walked, and nothing kept: the oracles for the frame's one
# path in ``necsurf.cosets``, ``necsurf.frames`` and ``necsurf.pipeline``,
# which certify once per frame (gamma, r) and read every later shape and
# rho off the frame.

def unkept_reidemeister_schreier(p: Presentation, theta):
    """``cosets.reidemeister_schreier`` with a ``cosets.schreier_frame``
    derived from ``p`` itself and kept nowhere: for any ``p`` whose
    generators and theta's bits pass its checks, its frame or not.  The
    subgroup keeps no frame."""
    parity = dict(zip(p.generator_names(), theta, strict=True))
    cycle = p.signature.period_cycles[0]
    prefix = p.relators[:len(p.relators) - len(cycle)]
    frame = cosets.schreier_frame(p.generators, prefix, parity)
    sub, relators = frame.subgroup, []
    for u in (0, 1):
        for rel in p.relators:
            rewritten = sub.rewrite(rel, u)
            if rewritten.letters and rewritten not in relators:
                relators.append(rewritten)
    torsion = zip((w for w, _ in frame.corners.values()), cycle)
    presentation = Presentation(sub.presentation.generators, relators, torsion)
    return cosets.SchreierSubgroup(p, sub.generators, presentation, sub.pair_names, parity)


def own_word_lemma(sub) -> tuple[str, ...]:
    """The lemma's checks on ``sub``'s own generator words and on a
    witness built here: the long relator x_gamma...x_1*e of ``sub``'s K
    rewritten by ``sub`` from cosets 0 and 1 and each x_j*x_j from coset
    0, each row looked up among ``sub``'s relators, and their exponent
    sums, the last gamma subtracted, added up.  Returns the names of the
    generators certified inverted, in order, or raises
    ``PipelineAssertionError`` with the frame certificate's message."""
    K = sub.base
    tau1, involutions = K.generators_of_kind("reflection")[0], K.involution_names()
    a, b = (g.name for g in sub.generators if g.role == "connector")
    substitution = {g.name: g.word for g in sub.generators}
    for name in substitution:
        identity = ((tau1, 1), (name, 1), (tau1, 1), {a: (b, -1), b: (a, -1)}.get(name, (name, 1)))
        if cyclic_reduce_letters(substitute_letters(identity, substitution), involutions):
            raise pipeline.PipelineAssertionError(
                f"conjugation identity for {name} could not be certified:"
                f" {Word(identity)} does not reduce to 1 in K")
    xs, (e,) = K.generators_of_kind("elliptic"), K.generators_of_kind("connector")
    long_relator = Word(tuple((x, 1) for x in reversed(xs)) + ((e, 1),))
    witness = [(1, long_relator, 0), (1, long_relator, 1)]
    witness += [(-1, Word.gen(x, 2), 0) for x in xs]
    relators, sums = {rel.letters for rel in sub.presentation.relators}, Counter()
    for sign, word, coset in witness:
        row = sub.rewrite(word, coset)
        if row.letters not in relators:
            raise pipeline.PipelineAssertionError(
                f"connector product {a}*{b}: witness row {row} ({word} from coset"
                f" {coset}) is not a relator of the derived kernel")
        for g, x in row.exponent_sums().items():
            sums[g] += sign * x
    sums = {g: x for g, x in sums.items() if x}
    if sums != {a: 1, b: 1}:
        raise pipeline.PipelineAssertionError(
            f"connector product {a}*{b}: witness rows sum to {sums}, not to {a}*{b}")
    return tuple(substitution)


def walked_theta(K: Presentation, datum):
    """Theta at rho by ``pipeline``'s closed form, with every relator of K
    walked: (Theta, its failures).  e's closed form is read off K's own
    names."""
    dihedral = DihedralGroup(datum.order)
    glides = ((-1) ** j * d for j, d in enumerate(datum.d_images, start=1))
    names = K.generator_names()
    ((_, solved),) = connector_elimination(K).items()
    connector = tuple((names.index(g), e) for g, e in solved.letters)
    images = pipeline._theta_images(connector, dihedral, glides, accumulate(datum.x_images))
    hom = FiniteHom(K, dihedral, zip(names, images, strict=True))
    return hom, named_walk(K, hom)


def rebuilt_hom(shape, datum, result) -> FiniteHom:
    """The ``FiniteHom`` that the rho stage's tuple ``result`` stands for
    at ``datum``: eta's images (an ``EtaResult``) named by the derived
    kernel's generators, or Theta's rotations (a ``DihedralExtension``)
    by K's, each with theta's image as its flip.  Construction checks
    that every image is an element of the target."""
    if isinstance(result, pipeline.EtaResult):
        pres = shape.derived.presentation
        return FiniteHom(pres, CyclicGroup(datum.order),
                         zip(pres.generator_names(), result.images, strict=True))
    K = shape.k_presentation
    images = ((name, (flip, rotation)) for name, flip, rotation
              in zip(K.generator_names(), shape.theta, result.rotations, strict=True))
    return FiniteHom(K, DihedralGroup(datum.order), images)


def walked_eta(sub, theta: FiniteHom):
    """eta as Theta on each Schreier generator's word, every relator of
    ``sub``'s presentation walked: (eta, the reasons of
    ``surface_kernel_problems``)."""
    pres = sub.presentation
    images = {}
    for g in sub.generators:
        flip, rot = theta.evaluate(g.word)
        assert not flip, g.name
        images[g.name] = rot
    eta = FiniteHom.from_dict(pres, CyclicGroup(theta.target.modulus), images)
    return eta, surface_kernel_problems(pres, eta, "eta")


def printed_relator_words(sub, periods):
    """The classical relator list of one shape's derived kernel when theta
    kills the connector, each row's label, word and source in K
    (``sub.base``): c1^(n_1) named for corner 1 and (c_k^-1*c_(k+1))^(n_(k+1))
    for corner k+1, each at rotation 0, e1*e2^-1[*c_r] for the connector
    relator at rotation 2, and the delta-alternations for nothing.  Built
    from the subgroup's roles alone, as the oracle of the frame's rows
    (``frames._printed_relator_words``), which name the corner units."""
    names = {}
    for g in sub.generators:
        names.setdefault(g.role, []).append(g.name)
    deltas, cs, (e1, e2) = names["glide"], names.get("corner rotation", []), names["connector"]
    corner = len(sub.base.relators) - len(periods)
    units = [(c, Word(((c, 1),))) for c in cs[:1]]
    units += [(f"({a}^-1*{b})", Word(((a, -1), (b, 1)))) for a, b in zip(cs, cs[1:])]
    rows = [(f"{text}^{p}", unit ** p, (corner + k, 0))
            for k, ((text, unit), p) in enumerate(zip(units, periods))]
    closing = Word(((e1, 1), (e2, -1), *((c, 1) for c in cs[-1:])))
    rows.append((str(closing), closing, (corner - 2, 2)))
    for i, (sign, e) in enumerate(((-1, e1), (1, e2)), start=1):
        letters = [(d, sign * (-1) ** j) for j, d in enumerate(deltas)]
        rows.append((f"delta-alternation-{i}", Word((*letters, (e, -1))), None))
    return rows


def oracle_certificate(datum):
    """``realize(datum)`` through the oracles alone, for a valid datum:
    the unkept Reidemeister-Schreier, every classical relator certified in
    one call, the own-word lemma, and Theta and eta with every relator
    walked.  Nothing is read off a frame's certificates."""
    genus = validate_action(datum)
    K = canonical_presentation(quotient_disc_signature(datum.gamma, datum.periods))
    theta = pipeline.build_theta(K)
    assert not named_walk(K, theta_hom(K, theta))
    sub = unkept_reidemeister_schreier(K, theta)
    printed = ()
    (connector,) = K.generators_of_kind("connector")
    if not sub.parity[connector]:
        labels, words, sources = zip(*printed_relator_words(sub, datum.periods))
        images = {g.name: g.word for g in sub.generators}
        printed = tuple(zip(labels, verify_derived_relators(
            K, words, sources, images, connector_elimination(K))))
        assert "unresolved" not in dict(printed).values()
    claim = NECSignature(False, datum.gamma, tuple(sorted(datum.periods)))
    derived = pipeline.DerivedKernel(sub, claim, printed)
    lemma = pipeline.LemmaReport(
        tuple(g.name for g in sub.generators if g.role == "connector"),
        own_word_lemma(sub), pipeline._torsion_factors(claim.proper_periods),
        claim.genus - 1)
    hom, unmapped = walked_theta(K, datum)
    assert not unmapped and hom.image_order() == 2 * datum.order
    eta, reasons = walked_eta(sub, hom)
    assert not reasons
    torsion = tuple(eta.evaluate(word) for word, _ in sub.presentation.torsion_words)
    assert torsion == datum.x_images
    shape = pipeline.ShapeCertificate(K, theta, derived, lemma, area_terms(K.signature))
    return pipeline.RealizationCertificate(
        datum, genus, shape, pipeline.EtaResult(tuple(v for _, v in eta.images), torsion),
        pipeline.DihedralExtension(tuple(k for _, (_, k) in hom.images), hom.image_order()))


def _oracle_signature(sig: NECSignature) -> dict:
    return {
        "sign": sig.sign,
        "genus": sig.genus,
        "proper_periods": list(sig.proper_periods),
        "period_cycles": [list(c) for c in sig.period_cycles],
        "display": sig.display(),
    }


def _oracle_presentation(p: Presentation) -> dict:
    return {
        "generators": [
            {"name": g, "kind": k.kind, "order": k.order} for g, k in p.generators
        ],
        "relators": [str(r) for r in p.relators],
    }


def _oracle_images(hom) -> dict:
    return {name: hom.target.format(value) for name, value in hom.images}


def oracle_document(cert, input_doc: dict) -> dict:
    """The certificate document of ``cert`` as one dict, with
    ``input_doc`` echoed as its ``input``: ``necsurf --format json
    realize`` prints ``json.dumps`` of it with sorted keys."""
    datum = cert.datum
    lemma = cert.lemma
    (connector,) = cert.k_presentation.generators_of_kind("connector")
    theta = theta_hom(cert.k_presentation, cert.theta)
    connector_exponent = theta.image_of(connector)
    return {
        "input": input_doc,
        "rho_resolved": {"d": list(datum.d_images), "x": list(datum.x_images)},
        "genus": cert.genus,
        "quotient_signature": _oracle_signature(datum.delta_signature()),
        "k_signature": _oracle_signature(cert.k_presentation.signature),
        "k_presentation": _oracle_presentation(cert.k_presentation),
        "theta": {
            "images": _oracle_images(theta),
            "connector_exponent": connector_exponent,
            "printed_connector_valid": connector_exponent == 0,
        },
        "area_ratio": "2",
        "delta_hat_signature": _oracle_signature(cert.derived.signature),
        "delta_hat_presentation": _oracle_presentation(cert.derived.presentation),
        "correspondence": [
            {"name": g.name, "role": g.role, "word": str(g.word)}
            for g in cert.derived.subgroup.generators
        ],
        "signature_match": True,
        "printed_relator_checks": [
            {"relator": label, "status": status}
            for label, status in cert.derived.printed_checks
        ],
        "lemma1": {
            "gamma_even": connector_exponent == 0,
            "connector_pair": list(lemma.connector_pair),
            "connector_product_class": [0] * len(cert.derived.subgroup.generators),
            "connector_product_zero": True,
            "conjugation_inversion_ok": True,
            "conjugation_certificates_ok": True,
            "abelianization": {
                "invariant_factors": list(lemma.invariant_factors),
                "free_rank": lemma.free_rank,
            },
        },
        "eta": {
            "images": _oracle_images(rebuilt_hom(cert.shape, datum, cert.eta)),
            "unit": 1,
            "torsion_images": list(cert.eta.torsion_images),
            "surjective": True,
            "parity_ok": True,
            "torsion_ok": True,
            "branch_match": True,
        },
        "theta_extension": {
            "images": _oracle_images(rebuilt_hom(cert.shape, datum, cert.extension)),
            "reflection_rotation": 0,
            "surjective": True,
            "restriction_agrees": True,
            "image_order": cert.extension.image_order,
            "kernel_index": cert.extension.image_order,
        },
        "genus_real": cert.genus,
        "genus_match": True,
        "conclusion": True,
    }
