"""The realization pipeline.

Input: a cyclic orientation-reversing action on a closed hyperbolic
surface, given by the quotient data (gamma crosscaps, cone orders
n_1..n_r, action order 2n with n even) together with a surface-kernel
epimorphism rho onto C_2n.

The chain constructed and verified here:

1. validate the action datum and compute the genus of the acted-on
   surface by exact Riemann-Hurwitz arithmetic;
2. build the bordered disc-quotient group K (gamma interior order-2
   points, corner orders n_1..n_r) and the parity map theta: K -> C_2
   sending each interior point and reflection to the non-trivial element
   and the connector to gamma mod 2, as the long relator forces;
3. derive the index-2 kernel of theta by Reidemeister-Schreier over the
   fixed coset representatives {1, tau1}: each generator is born with its
   canonical name (delta_j = tau1*x_j, c_k = tau1*tau_(k+1), the connector
   pair, their tau1-conjugates, tau1sq) and kernel words are rewritten by
   walking theta's parity bit; claim its signature (gamma; -; [n_1..n_r])
   and check the claim in O(gamma + r): the torsion words' orders are the
   periods, some Schreier generator reverses orientation, and the claimed
   reduced area is twice K's (Riemann-Hurwitz at index 2);
4. certify, in one pass over the Schreier generators, that conjugation by
   the first reflection inverts the kernel's abelianization H1 (so every
   homomorphism to an abelian group has normal kernel in K): tau1*g*tau1*g
   reduces to 1 in K for each generator g but the connector pair, which
   tau1 swaps, and one witness of gamma + 2 derived relators kills the
   connector product in H1; H1 itself is read off the certified
   signature: Z^(gamma-1) + Z/(2*n_m) + the Z/n_i for i != m, n_m a
   period of largest 2-adic valuation (Z^(gamma-1) + Z/2 when r = 0);
5. write Theta: K -> D_2n on K's generators from rho in closed form, with
   Theta(tau1) = t, and read eta off it as its restriction to the derived
   kernel: an epimorphism onto C_2n with eta(delta_j) = (-1)^j d_j and
   eta(c_k) = x_1 + ... + x_k (branch data matched exactly, in order);
6. conclude: ker(Theta) = ker(eta) uniformizes a closed surface of the
   same genus carrying both the cyclic action and a reflection, and emit
   the full audit trail as a certificate.

Steps 2 to 4 depend only on the quotient shape (gamma; -; [n_1..n_r]),
not on rho or n, so ``realize`` runs in two stages: validation first,
then ``shape_certificate(gamma, periods)``, which builds and checks K,
theta, the derived kernel and the lemma report and is memoised for the
``SHAPE_MEMO_SIZE`` = 16 most recent shapes, then steps 5 and 6 for rho.
A sweep over the epimorphisms of one shape derives that shape once.  The
memo holds each shape's objects, which no later step mutates: measured
with tracemalloc, about 26 KB per shape of the 126-action battery (37 KB
at most), 100 KB at gamma = 40 and 13 MB at gamma = 5120, so at most 16
times the largest shape built.

Every map the mathematics fixes is built in closed form and then
verified; any check that fails where the mathematics says it cannot
raises ``PipelineAssertionError`` instead of producing a weakened
certificate.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import accumulate, combinations_with_replacement, product

from .cosets import SchreierSubgroup, reidemeister_schreier
from .groups import CyclicGroup, DihedralGroup, FiniteHom
from .kernels import KernelSignatureReport
from .presentations import (
    Presentation,
    canonical_presentation,
    check_homomorphism,
    connector_closed_form,
    verify_derived_relators,
)
from .signatures import (
    NECSignature,
    quotient_disc_signature,
    reduced_area,
    surface_kernel_genus,
)
from .words import Word, cyclic_reduce_letters, substitute_letters


class ActionValidationError(ValueError):
    """The input action datum violates one or more invariants."""

    def __init__(self, reasons: tuple[str, ...]):
        self.reasons = tuple(reasons)
        super().__init__("; ".join(reasons))


class PipelineAssertionError(RuntimeError):
    """An internal step failed where the construction guarantees success:
    either a bug or an unsupported edge case, never a silent downgrade."""


# ---------------------------------------------------------------------------
# Action data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActionDatum:
    """Quotient data of a cyclic orientation-reversing action: gamma
    crosscaps, cone orders, n (the action has order 2n), and the images
    of the glide and elliptic generators under rho: Delta -> C_2n, as
    residues reduced mod 2n (when n >= 1; otherwise validation rejects n)."""

    gamma: int
    periods: tuple[int, ...]
    n: int
    d_images: tuple[int, ...]
    x_images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "periods", tuple(self.periods))
        for field in ("d_images", "x_images"):
            values = tuple(getattr(self, field))
            if self.n >= 1:
                values = tuple(v % self.order for v in values)
            object.__setattr__(self, field, values)

    @property
    def order(self) -> int:
        return 2 * self.n

    def delta_signature(self) -> NECSignature:
        return NECSignature(False, self.gamma, self.periods)


def decimal(v: int) -> str:
    """``v`` in decimal, or a note of its length when it has more digits
    than Python converts to a string (``sys.get_int_max_str_digits``): a
    reason naming an order 2n or a residue mod 2n, which can be one digit
    longer than any integer in the input, still prints."""
    try:
        return str(v)
    except ValueError:
        return f"(an integer of more than {sys.get_int_max_str_digits()} digits)"


def _surface_kernel_problems(pres: Presentation, hom: FiniteHom, label: str) -> list[str]:
    """Every way ``hom`` fails to be a surface-kernel epimorphism of
    ``pres`` onto a cyclic group C_2n, one item each and in this order:
    relators that do not map to the identity, non-surjectivity (the image
    order is a gcd), torsion words whose image has lost order, and images
    whose parity differs from their generator's orientation character.
    For a surjective map onto C_2n the last condition is exactly the
    orientation character factoring through the image, so with no item
    the kernel is a torsion-free Fuchsian surface group."""
    problems = [
        f"{label} is not a homomorphism: relator {rel} maps to {decimal(value)}"
        for rel, value in check_homomorphism(pres, hom)
    ]
    if not hom.is_surjective():
        problems.append(f"{label} is not surjective onto C_{decimal(hom.target.modulus)}")
    for word, n in pres.torsion_words:
        image = hom.evaluate(word)
        order = hom.target.element_order(image)
        if order != n:
            problems.append(
                f"torsion collapse: {word} image {decimal(image)} has order"
                f" {decimal(order)}, declared {n}"
            )
    for name, kind in pres.generators:
        v = hom.image_of(name)
        if v % 2 != (kind.character == -1):
            problems.append(
                f"orientation mismatch: {kind.kind} image {name} -> {decimal(v)} is"
                f" {'odd' if v % 2 else 'even'}"
            )
    return problems


def shape_problems(gamma: int, periods: tuple[int, ...], n: int) -> list[str]:
    """Each violation of the rho-independent invariants, one item each: n
    even and at least 2, gamma at least 1, each period at least 2, dividing
    n and at most ``sys.maxsize`` (a relator spells its period out letter
    by letter), and (when those hold) (gamma; -; [periods]) hyperbolic."""
    errors: list[str] = []
    if n < 2:
        errors.append(f"n = {n} must be at least 2")
    elif n % 2 != 0:
        errors.append(f"n = {n} must be even (the action order is 2n with n even)")
    if gamma < 1:
        errors.append(f"gamma = {gamma} must be at least 1")
    for i, nj in enumerate(periods, start=1):
        if nj < 2:
            errors.append(f"period n_{i} = {nj} must be at least 2")
        elif nj > n:
            errors.append(f"period n_{i} = {nj} exceeds n = {n}")
        elif n % nj != 0:
            errors.append(f"period n_{i} = {nj} does not divide n = {n}")
        elif nj > sys.maxsize:
            errors.append(
                f"period n_{i} = {nj} exceeds {sys.maxsize}, the longest relator"
                " word that can be spelled out"
            )
    if not errors:
        sig = NECSignature(False, gamma, periods)
        area = reduced_area(sig)
        if area <= 0:
            errors.append(f"signature {sig} is not hyperbolic (reduced area {area})")
    return errors


def admissible_shapes(max_gamma: int, max_r: int, max_order: int) -> list[tuple]:
    """Each (gamma, periods, 2n) that ``shape_problems`` accepts with 2n <=
    max_order, gamma <= max_gamma and at most max_r periods dividing n; in
    order of 2n, gamma, r, then periods."""
    return [
        (gamma, periods, 2 * n)
        for n in range(1, max_order // 2 + 1)
        for gamma in range(max_gamma + 1)
        for r in range(max_r + 1)
        for periods in combinations_with_replacement(
            [p for p in range(2, n + 1) if n % p == 0], r
        )
        if not shape_problems(gamma, periods, n)
    ]


def validate_action(datum: ActionDatum) -> int:
    """Check every invariant of the action datum and return the genus of
    the acted-on surface, or raise ``ActionValidationError`` listing
    every violation, one reason each.

    The quotient data are checked by ``shape_problems`` and rho's lengths
    (gamma glide images, one elliptic image per period) with them; when
    all of those hold, rho is checked item by item by
    ``_surface_kernel_problems``.  The genus then follows from
    Riemann-Hurwitz, 2g - 2 = 2n * area, whose right side is a positive
    even integer for every shape ``shape_problems`` accepts, since each
    period divides n.
    """
    errors = shape_problems(datum.gamma, datum.periods, datum.n)
    if len(datum.d_images) != max(datum.gamma, 0):
        errors.append(
            f"expected {datum.gamma} glide images, got {len(datum.d_images)}"
        )
    if len(datum.x_images) != len(datum.periods):
        errors.append(
            f"expected {len(datum.periods)} elliptic images, got {len(datum.x_images)}"
        )
    if errors:
        raise ActionValidationError(tuple(errors))

    sig = datum.delta_signature()
    two_n = datum.order
    target = CyclicGroup(two_n)
    delta = canonical_presentation(sig)
    images = dict(zip(delta.generators_of_kind("glide"), datum.d_images))
    images.update(zip(delta.generators_of_kind("elliptic"), datum.x_images))
    rho = FiniteHom.from_dict(delta, target, images)

    errors += _surface_kernel_problems(delta, rho, "rho")
    if errors:
        raise ActionValidationError(tuple(errors))
    return surface_kernel_genus(sig, two_n)


# ---------------------------------------------------------------------------
# theta and the derived kernel
# ---------------------------------------------------------------------------

def build_theta(K: Presentation) -> FiniteHom:
    """The parity map K -> C_2: interior elliptics and reflections go to
    the non-trivial element, and the connector to the normal form of its
    closed form x_1^-1...x_gamma^-1, gamma mod 2: the one image making the
    long relator hold (so the naive image e -> 1 is valid exactly when
    gamma is even)."""
    c2 = CyclicGroup(2)
    images = {name: 1 for name, kind in K.generators if kind.kind != "connector"}
    for e, word in connector_closed_form(K).items():
        images[e] = c2.normal_form(images, word.letters)
    return FiniteHom.from_dict(K, c2, images)


@dataclass(frozen=True)
class DerivedKernel:
    """The index-2 kernel of theta: Reidemeister-Schreier presentation
    (with canonical generator names and torsion words), the signature
    claimed for it and checked, and the certified classical relators, each
    label with its status, "trivial" or "matches-relator"."""

    subgroup: SchreierSubgroup
    signature: NECSignature
    printed_checks: tuple[tuple[str, str], ...]

    @property
    def presentation(self) -> Presentation:
        return self.subgroup.presentation

    @property
    def report(self) -> KernelSignatureReport:  # bench/workloads.py:234, 262; ROADMAP item 12
        return KernelSignatureReport(self.signature)


def _printed_relator_words(
    sub: SchreierSubgroup, periods: tuple[int, ...]
) -> list[tuple[str, Word, tuple[int, int] | None]]:
    """The classical relator list of the derived kernel when theta kills
    the connector, over the derived generators, their names read by role,
    each with its source: the index of a relator of K (K's relators end
    with the connector relator, the long relator and the corners) and the
    rotation at which the word, spelled in K and reduced, equals it.
    c1^(n_1) spells corner 1 and (c_k^-1*c_(k+1))^p corner k+1, letter for
    letter; e1*e2^-1[*c_r] spells e*tau1*e^-1*tau_(r+1), the connector
    relator e^-1*tau_(r+1)*e*tau1 read from its third letter (rotation 2),
    for r = 0 too; the delta-alternations are trivial (None)."""
    deltas, cs, (e1, e2) = (
        [g.name for g in sub.generators if g.role == role]
        for role in ("glide", "corner rotation", "connector")
    )
    corner = len(sub.base.relators) - len(periods)
    rels = [(f"{cs[0]}^{periods[0]}", Word.gen(cs[0], periods[0]), (corner, 0))] if cs else []
    rels += [(f"({a}^-1*{b})^{p}", (Word.gen(a, -1) * Word.gen(b)) ** p, (corner + k, 0))
             for k, (a, b, p) in enumerate(zip(cs, cs[1:], periods[1:]), start=1)]
    closing = Word(((e1, 1), (e2, -1), *((c, 1) for c in cs[-1:])))
    rels.append((str(closing), closing, (corner - 2, 2)))
    # delta1^-1*delta2*delta3^-1*... and its sign flip, then e1^-1 or e2^-1
    for i, (sign, e) in enumerate(((-1, e1), (1, e2)), start=1):
        letters = [(d, sign * (-1) ** j) for j, d in enumerate(deltas)]
        rels.append((f"delta-alternation-{i}", Word((*letters, (e, -1))), None))
    return rels


def derive_delta_hat(K: Presentation, theta: FiniteHom) -> DerivedKernel:
    """Reidemeister-Schreier presentation of ker(theta) over {1, tau1},
    with its torsion words and its claimed signature, and (when theta's
    bit on the connector is 0, as for even gamma) the certified classical
    relator list.  Every input check is ``reidemeister_schreier``'s, and
    runs first: theta must be K's parity map, and K needs an interior cone
    point.

    The claim is Delta's signature (gamma; -; [sorted periods]), so the
    two groups are isomorphic (Macbeath, Canad. J. Math. 19, 1967).  The
    kernel has no reflection, so no boundary, and three O(gamma + r) facts
    fix the rest: the torsion words' orders are the periods, as a
    multiset; some Schreier generator has orientation character -1; and
    the claimed reduced area is twice K's (Riemann-Hurwitz at index 2),
    which with the periods and the sign fixes the genus.  The area check
    multiplies, so it holds where K's area is 0.  A fact that fails raises
    ``PipelineAssertionError`` naming the claimed signature."""
    sub = reidemeister_schreier(K, theta)
    periods = K.signature.period_cycles[0]
    claim = NECSignature(False, len(K.generators_of_kind("elliptic")), tuple(sorted(periods)))
    unproved = f"derived kernel signature {claim} not certified"
    orders = sorted(n for _, n in sub.presentation.torsion_words)
    if orders != list(claim.proper_periods):
        raise PipelineAssertionError(
            f"{unproved}: torsion word orders {orders} are not the periods"
        )
    if all(kind.character == 1 for _, kind in sub.presentation.generators):
        raise PipelineAssertionError(f"{unproved}: no Schreier generator reverses orientation")
    area, k_area = reduced_area(claim), reduced_area(K.signature)
    if area != 2 * k_area:
        raise PipelineAssertionError(f"{unproved}: reduced area {area} is not twice K's {k_area}")

    printed: list[tuple[str, str]] = []
    (connector,) = K.generators_of_kind("connector")
    if not sub.parity[connector]:
        labels, words, sources = zip(*_printed_relator_words(sub, periods))
        images = {g.name: g.word for g in sub.generators}
        printed = list(zip(labels, verify_derived_relators(K, words, sources, images)))
        for label, status in printed:
            if status == "unresolved":
                raise PipelineAssertionError(f"classical relator {label} could not be certified")

    return DerivedKernel(subgroup=sub, signature=claim, printed_checks=tuple(printed))


# ---------------------------------------------------------------------------
# Lemma: conjugation by tau1 inverts the abelianized kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaReport:
    """Evidence that ker(zeta) is normal in K for every homomorphism zeta
    of the derived kernel to an abelian group: conjugation by the first
    reflection tau1 acts as -1 on the kernel's abelianization H1, for
    either parity of gamma.

    ``lemma1_check`` raises at the first check that fails, so the report
    holds what was checked, not verdicts.  ``inversion_entries`` names,
    in generator order, each generator whose class was certified to be
    inverted; the identity tau1*g*tau1*g = 1 that the certificate prints
    for each glide and corner rotation g among them was certified in K.
    The connector product is certified to die in H1 for both parities, so
    ``connector_product_zero`` and ``ok`` are constants kept for bench/.
    ``invariant_factors`` and ``free_rank`` describe H1, a direct sum of
    cyclic groups read off the certified signature."""

    connector_pair: tuple[str, str]
    inversion_entries: tuple[str, ...]
    invariant_factors: tuple[int, ...]
    free_rank: int

    connector_product_zero = ok = True  # bench/workloads.py:265; ROADMAP item 12


def _torsion_factors(periods: tuple[int, ...]) -> tuple[int, ...]:
    """Invariant factors of the torsion of H1 of (gamma; -; [n_1..n_r]):
    coker C, C with rows n_i*e_i and (1 ... 1 | 2), the group on c_1..c_r
    and z (the sum of the glides) with n_i*c_i = 0 and
    c_1 + ... + c_r + 2z = 0.  It is Z/(2*n_m) + the Z/n_i for i != m,
    n_m a period of largest 2-adic valuation a_m (Z/2 when r = 0), as
    holds prime by prime:
    - at an odd prime, 2 is a unit, so z is eliminated;
    - at 2, substituting c_m = -2z - sum_{i != m} c_i leaves
      2^(a_m+1)*z = 0, since 2^(a_m) kills the 2-part of each c_i.
    One gcd/lcm pass inserts each order into the chain d_1 | d_2 | ...
    (at each prime, into the sorted exponents); the 1s are dropped."""
    orders = list(periods) or [1]
    m = max(range(len(orders)), key=lambda i: orders[i] & -orders[i])
    orders[m] *= 2
    chain: list[int] = []
    for x in orders:
        for j in reversed(range(len(chain))):
            chain[j], x = math.lcm(chain[j], x), math.gcd(chain[j], x)
        chain.insert(0, x)
    return tuple(d for d in chain if d > 1)


def lemma1_check(derived: DerivedKernel) -> LemmaReport:
    """Certify the normality lemma in one pass over the Schreier generators,
    without abelianizing the kernel.

    For each generator g an identity, spelled in K by
    ``substitute_letters``, reduces to the empty word
    (``cyclic_reduce_letters``): tau1*g*tau1*g = 1, so
    conjugation by tau1 sends g to g^-1, except for the connector pair
    (a, b), which tau1 swaps, tau1*a*tau1*b^-1 = 1.  So tau1 acts as -1 on
    H1 once the class of a*b is zero.  One witness shows that: the long
    relator L rewritten from cosets 0 and 1, minus x_j*x_j rewritten from
    coset 0 for each interior point x_j, has the exponent sums of a*b, and
    each of these gamma + 2 rows is a relator of the derived presentation.

    H1 itself is read off the signature (gamma; -; [n_1..n_r]) that
    ``derive_delta_hat`` certified, as an NEC group is determined by its
    signature (Macbeath, Canad. J. Math. 19, 1967): Z^(gamma-1) plus the
    finite direct sum of cyclic groups that ``_torsion_factors`` gives."""
    sub = derived.subgroup
    K = sub.base
    tau1 = K.generators_of_kind("reflection")[0]
    involutions = K.involution_names()
    images = {gen.name: gen.word for gen in sub.generators}
    a, b = pair = tuple(gen.name for gen in sub.generators if gen.role == "connector")
    last_letter = {a: (b, -1), b: (a, -1)}
    for name in images:
        identity = ((tau1, 1), (name, 1), (tau1, 1), last_letter.get(name, (name, 1)))
        if cyclic_reduce_letters(substitute_letters(identity, images), involutions):
            raise PipelineAssertionError(
                f"conjugation identity for {name} could not be certified:"
                f" {Word(identity)} does not reduce to 1 in K"
            )

    (e, solved), = connector_closed_form(K).items()
    long_relator = solved.inverse() * Word.gen(e)
    rows = [(1, long_relator, 0), (1, long_relator, 1)]
    rows += [(-1, Word.gen(x, 2), 0) for x in K.generators_of_kind("elliptic")]
    relators = set(derived.presentation.relators)
    sums: dict[str, int] = {}
    for sign, word, coset in rows:
        row = sub.rewrite(word, coset)
        if row not in relators:
            raise PipelineAssertionError(
                f"connector product {a}*{b}: witness row {row} ({word} from coset"
                f" {coset}) is not a relator of the derived kernel"
            )
        for g, x in row.exponent_sums().items():
            sums[g] = sums.get(g, 0) + sign * x
    sums = {g: x for g, x in sums.items() if x}
    if sums != {a: 1, b: 1}:
        raise PipelineAssertionError(
            f"connector product {a}*{b}: witness rows sum to {sums}, not to {a}*{b}"
        )

    sig = derived.signature
    return LemmaReport(
        connector_pair=pair,
        inversion_entries=tuple(images),
        invariant_factors=_torsion_factors(sig.proper_periods),
        free_rank=sig.genus - 1,
    )


# ---------------------------------------------------------------------------
# The shape stage: everything that depends on (gamma, periods) alone
# ---------------------------------------------------------------------------

SHAPE_MEMO_SIZE = 16


@dataclass(frozen=True)
class ShapeCertificate:
    """K, theta, the derived kernel and the lemma report of one quotient
    shape (gamma; -; [n_1..n_r]), each checked; shared by every
    certificate of that shape and never mutated."""

    k_presentation: Presentation
    theta: FiniteHom
    derived: DerivedKernel
    lemma: LemmaReport


@lru_cache(maxsize=SHAPE_MEMO_SIZE)
def shape_certificate(gamma: int, periods: tuple[int, ...]) -> ShapeCertificate:
    """The rho-independent stage of ``realize``, in its order: K and
    theta, theta a homomorphism, ``derive_delta_hat`` (which claims and
    checks the kernel's signature, the index-2 area identity included) and
    ``lemma1_check``.  A failed check raises ``PipelineAssertionError``.

    Memoised for the ``SHAPE_MEMO_SIZE`` most recent shapes; a call that
    raises is not memoised, so it raises again on the next call.  The
    shape is not checked here: ``realize`` calls this only after
    ``validate_action`` has accepted the datum."""
    K = canonical_presentation(quotient_disc_signature(gamma, periods))
    theta = build_theta(K)
    if check_homomorphism(K, theta):
        raise PipelineAssertionError("parity map theta is not a homomorphism")

    derived = derive_delta_hat(K, theta)
    return ShapeCertificate(
        k_presentation=K, theta=theta, derived=derived, lemma=lemma1_check(derived)
    )


# ---------------------------------------------------------------------------
# Theta on K, and eta as its restriction to the derived kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DihedralExtension:
    """Theta: K -> D_2n and its image order 4n, the index of ker(Theta) in
    K.  ``reflection_rotation`` and ``kernel_index`` are kept for bench/."""

    hom: FiniteHom
    image_order: int
    reflection_rotation = 0  # bench/layers.py:63; ROADMAP item 12

    @property
    def kernel_index(self) -> int:  # bench/workloads.py:240; ROADMAP item 12
        return self.image_order


def extend_to_dihedral(K: Presentation, datum: ActionDatum) -> DihedralExtension:
    """Theta: K -> D_2n, written on K's generators from rho in closed form:
    Theta(tau1) = t, Theta(x_j) = t*s^((-1)^j d_j), Theta(tau_(k+1)) =
    t*s^(x_1 + ... + x_k), and Theta(e) is the normal form of e's closed form
    (``connector_closed_form``), forced by the long relator.
    Theta is then verified to be a homomorphism on K with image of order
    4n, so ker(Theta) has index 4n in K.  A failed check raises
    ``PipelineAssertionError`` naming it.
    """
    dihedral = DihedralGroup(datum.order)
    taus = K.generators_of_kind("reflection")
    images = {taus[0]: dihedral.reflection(0)}
    images.update(zip(K.generators_of_kind("elliptic"), (
        dihedral.reflection((-1) ** j * d) for j, d in enumerate(datum.d_images, start=1)
    )))
    images.update(zip(taus[1:], map(dihedral.reflection, accumulate(datum.x_images))))
    for e, word in connector_closed_form(K).items():
        images[e] = dihedral.normal_form(images, word.letters)

    hom = FiniteHom.from_dict(K, dihedral, images)
    for rel, value in check_homomorphism(K, hom):
        raise PipelineAssertionError(
            f"Theta is not a homomorphism: relator {rel} maps to {dihedral.format(value)}"
        )
    image_order = hom.image_order()
    if image_order != dihedral.order:
        raise PipelineAssertionError(
            f"Theta image has order {image_order}, expected 4n = {dihedral.order}"
        )
    return DihedralExtension(hom, image_order)


@dataclass(frozen=True)
class EtaResult:
    """eta onto C_2n and its torsion images, rho's elliptic images (the
    branch match has unit 1; ``unit`` is a constant kept for bench/)."""

    hom: FiniteHom
    torsion_images: tuple[int, ...]
    unit = 1  # bench/workloads.py:241; ROADMAP item 12


def construct_eta(
    derived: DerivedKernel, extension: DihedralExtension, datum: ActionDatum
) -> EtaResult:
    """Epimorphism of the derived kernel onto C_2n carrying exactly the
    branch data of rho: the restriction of Theta, eta(g) = the rotation
    Theta(g.word) for each kernel generator g.

    The result is verified: every image is a rotation, eta passes the
    same surface-kernel checks as rho (``_surface_kernel_problems``), and
    the torsion images equal rho's elliptic images in order.  A failed
    check raises ``PipelineAssertionError`` naming it.
    """
    target = CyclicGroup(datum.order)
    pres = derived.presentation

    images = {}
    for gen in derived.subgroup.generators:
        flip, rot = extension.hom.evaluate(gen.word)
        if flip:
            raise PipelineAssertionError(
                f"eta: Theta sends the kernel generator {gen.name} to the"
                f" reflection {extension.hom.target.format((flip, rot))}"
            )
        images[gen.name] = rot

    hom = FiniteHom.from_dict(pres, target, images)
    problems = _surface_kernel_problems(pres, hom, "eta")
    if problems:
        raise PipelineAssertionError("eta: " + "; ".join(problems))
    torsion_images = tuple(hom.evaluate(word) for word, _ in pres.torsion_words)
    if torsion_images != datum.x_images:
        raise PipelineAssertionError(
            f"eta: torsion images {list(torsion_images)} differ from rho's elliptic"
            f" images {list(datum.x_images)}"
        )
    return EtaResult(hom=hom, torsion_images=torsion_images)


# ---------------------------------------------------------------------------
# End-to-end realization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealizationCertificate:
    """Complete audit trail: every object of the construction,
    re-checkable without recomputation.  ``realize`` raises at the first
    check that fails, so a certificate holds values, not verdicts: the
    quotient signature is ``datum.delta_signature()``, K's is
    ``k_presentation.signature``, theta's connector exponent is its image
    of the connector, the area ratio is 2, and the real surface has genus
    ``genus``.  ``conclusion`` is a constant kept for bench/."""

    datum: ActionDatum
    genus: int
    k_presentation: Presentation
    theta: FiniteHom
    derived: DerivedKernel
    lemma: LemmaReport
    eta: EtaResult
    extension: DihedralExtension

    conclusion = True  # bench/workloads.py:243; ROADMAP item 12


def realize(datum: ActionDatum) -> RealizationCertificate:
    """Run the full chain and emit the certificate, in two stages.

    ``validate_action`` runs first, on every call, so invalid input never
    reaches the shape stage.  ``shape_certificate(gamma, periods)`` then
    gives K, theta, the derived kernel and the lemma report, built and
    checked once per shape and memoised for the ``SHAPE_MEMO_SIZE`` = 16
    most recent shapes.  The rho stage follows: ``extend_to_dihedral``,
    ``construct_eta`` and the genus bookkeeping: validation's genus, read
    off Delta, against Riemann-Hurwitz for ker(Theta) at index
    ``image_order`` in K.

    Raises ``ActionValidationError`` on invalid input and
    ``PipelineAssertionError`` if an internal step fails where the
    construction guarantees success.
    """
    genus = validate_action(datum)
    shape = shape_certificate(datum.gamma, datum.periods)
    K, derived = shape.k_presentation, shape.derived
    extension = extend_to_dihedral(K, datum)
    eta = construct_eta(derived, extension, datum)

    genus_real = surface_kernel_genus(K.signature, extension.image_order)
    if genus_real != genus:
        raise PipelineAssertionError(f"genus bookkeeping disagrees: {genus} vs {genus_real}")

    return RealizationCertificate(
        datum=datum,
        genus=genus,
        k_presentation=K,
        theta=shape.theta,
        derived=derived,
        lemma=shape.lemma,
        eta=eta,
        extension=extension,
    )


# ---------------------------------------------------------------------------
# Surface-kernel epimorphisms onto C_2n: the first one, and all of them
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnumerationResult:
    tuples: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def count(self) -> int:
        return len(self.tuples)


def _image_choices(
    gamma: int, periods: tuple[int, ...], order: int
) -> list[tuple[int, Sequence[int]]]:
    """The letters d_1..d_gamma, x_1..x_r, each as its weight in the long
    relator and its candidate images in increasing order: the odd
    residues for every glide, and for a period p the residues of exact
    order p in C_order, which are (order/p)*u for the units u mod p.
    Raises ``ActionValidationError`` unless the shape is admissible: an
    even order 2n carries the reasons of ``shape_problems(gamma, periods,
    n)``, an odd order one reason naming it.  The searches index by
    machine integers, so an otherwise admissible shape gets one reason
    each for an order or a gamma above ``sys.maxsize``."""
    if order % 2:
        reasons = [f"order {order} is odd: the action order must be 2n with n even"]
    else:
        reasons = shape_problems(gamma, periods, order // 2)
    if not reasons:
        if order > sys.maxsize:
            reasons.append(f"order {decimal(order)} exceeds {sys.maxsize}, the largest order"
                           " the search can index")
        if gamma > sys.maxsize:
            reasons.append(f"gamma = {gamma} exceeds {sys.maxsize}, the most glides"
                           " the search can index")
    if reasons:
        raise ActionValidationError(tuple(reasons))
    return [(2, range(1, order, 2))] * gamma + [
        (1, [order // p * u for u in range(1, p) if math.gcd(u, p) == 1]) for p in periods
    ]


def enumerate_smooth_epimorphisms(
    gamma: int, periods: tuple[int, ...], order: int
) -> EnumerationResult:
    """All surface-kernel epimorphisms of the crosscap group
    (gamma; -; [periods]) onto C_order, as raw image tuples.

    Conditions: each elliptic image has exactly its declared order, each
    glide image is odd, the long relator sums to zero, and the images
    generate.  An elliptic image of period p is (order/p)*u with u a unit
    mod p (``_image_choices``), so every elliptic tuple has the same gcd
    with order, order / lcm(periods) (order itself when r = 0), and the
    elliptic product is listed once, grouped by its sum mod order.  The
    first gamma - 1 glides are walked in product order, each prefix
    carrying its state: twice its sum mod order, and its gcd with
    order / lcm(periods).  Each state's moves on one glide, and its block
    of last glide values that keep the images generating, each with the
    elliptic tuples that then close the long relator, are built once.  So
    the output is in lexicographic order over (d_1..d_gamma, x_1..x_r),
    and the cost is (order/2)^(gamma-1) prefixes, plus at most
    order * tau(order) states of order/2 glide values each (tau counting
    divisors), plus the elliptic product, plus the output; a shape with no
    epimorphism, as the walk of ``first_smooth_epimorphism`` decides
    first, lists nothing at once.
    Counts are raw, with no quotient by any equivalence.  Raises
    ``ActionValidationError``, itemised as for ``realize``, when the shape
    is not admissible (``_image_choices``).
    """
    letters = _image_choices(gamma, periods, order)
    if _first_images(letters, order) is None:
        return EnumerationResult(())
    glides = letters[0][1]
    by_sum: dict[int, list[tuple[int, ...]]] = {}
    for x_images in product(*(choices for _, choices in letters[gamma:])):
        by_sum.setdefault(sum(x_images) % order, []).append(x_images)

    @cache
    def step(total: int, g: int) -> list[tuple[int, tuple[int, int]]]:
        return [(v, ((total + 2 * v) % order, math.gcd(g, v))) for v in glides]

    @cache
    def block(total: int, g: int) -> list[tuple[int, list[tuple[int, ...]]]]:
        return [(v, xs) for v, (total_v, g_v) in step(total, g)
                if g_v == 1 and (xs := by_sum.get(-total_v % order))]

    # the first gamma - 1 glides in product order, each prefix with its
    # state; a generator's outermost iterable is evaluated when it is made,
    # so each level lists the one before it and only the last is lazy
    states: Iterator[tuple[tuple[int, ...], tuple[int, int]]] = iter(
        [((), (0, order // math.lcm(*periods)))]
    )
    for _ in range(gamma - 1):
        states = ((prefix + (v,), child)
                  for prefix, state in list(states) for v, child in step(*state))
    return EnumerationResult(tuple([
        (d, x) for prefix, state in states for v, xs in block(*state)
        for d in (prefix + (v,),) for x in xs
    ]))


def first_smooth_epimorphism(
    gamma: int, periods: tuple[int, ...], order: int
) -> ActionDatum | None:
    """Lexicographically first surface-kernel epimorphism, as an action
    datum, or None when there is none.

    A depth-first walk over the letters d_1..d_gamma, x_1..x_r, trying each
    letter's candidates (``_image_choices``) in increasing order.  The
    state after k letters is (k, relator sum mod order, gcd of order and
    the images so far), and a state found to have no completion is never
    expanded again.  So the walk expands each state at most once: at most
    (gamma + r) * order * tau(order) states, tau counting divisors, each
    tried against one letter's candidates.  The walk keeps an explicit
    stack, so gamma is not bounded by the recursion limit.  Raises
    ``ActionValidationError`` on the shapes ``enumerate_smooth_epimorphisms``
    rejects, with the same reasons.
    """
    images = _first_images(_image_choices(gamma, periods, order), order)
    if images is None:
        return None
    return ActionDatum(gamma, periods, order // 2, images[:gamma], images[gamma:])


def _first_images(letters: list[tuple[int, Sequence[int]]], order: int) -> list[int] | None:
    """The walk of ``first_smooth_epimorphism``: its images, or None."""
    last = len(letters) - 1
    dead: set[tuple[int, int, int]] = set()
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
