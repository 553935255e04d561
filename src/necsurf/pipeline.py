"""The realization pipeline.

Input: a cyclic orientation-reversing action on a closed hyperbolic
surface, given by the quotient data (gamma crosscaps, cone orders
n_1..n_r, action order 2n with n even) together with a surface-kernel
epimorphism rho onto C_2n.

The chain constructed and verified here:

1. validate the action datum, rho by closed-form conditions in O(gamma + r)
   integers, and compute the genus by exact Riemann-Hurwitz arithmetic;
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
   eta(c_k) = x_1 + ... + x_k (branch data matched exactly, in order).
   Their relators are certified once per frame (gamma, r), for every rho
   at once, by folding them under a symbolic Theta, whose rotations are
   integer linear forms in rho's images: a relator that folds to the
   identity holds at every rho.  Of K's relators but the corners only the
   connector relator does not (it folds to +-R, R = 2(d_1 + ... +
   d_gamma) + x_1 + ... + x_r), and each corner unit folds to x_k, so per
   rho Theta walks that one relator, four letters, and reads each corner
   off the images of its two reflections.  Each relator of the derived
   kernel folds under the symbolic eta as the relator of K it rewrites,
   so eta walks none: it evaluates the two rewrites of the connector
   relator at rho, and its torsion orders hold the corners.  With the
   images, |Theta(K)| = 4n and eta's surjectivity (gcds), its parities
   and torsion orders, a rho costs O(gamma + r) integer steps: Theta and
   eta are tuples in generator order, named only when rendered;
6. conclude: ker(Theta) = ker(eta) uniformizes a closed surface of the
   same genus carrying both the cyclic action and a reflection, and emit
   the full audit trail as a certificate.

Steps 2 to 4 depend only on the quotient shape (gamma; -; [n_1..n_r]),
not on rho or n, so ``realize`` runs in two stages: validation first,
then ``shape_certificate(gamma, periods)``, which builds and checks K,
theta, the derived kernel and the lemma report and is memoised, then
steps 5 and 6 for rho.
A sweep over the epimorphisms of one shape derives that shape once.
Below it, every fact the periods do not enter is certified once per
frame (gamma, r), in one record built whole (``frames.FrameCertificate``)
and memoised by ``presentations.certify_frame``: with
``shape_certificate``, the two memos of the shape stage, each bounded by
letters of K (``presentations.LetterMemo``).  K must be its frame plus
its corners (``cosets.reidemeister_schreier`` refuses any other), and the
derived kernel's subgroup holds the frame's record, where the lemma and
the rho stage read it.  A new shape in a warm frame takes O(r) Python
steps and certifies no word: it spells its corners, accepts theta and
each corner of K by tuple comparisons with the frame, rewrites and
de-duplicates the corners, checks the claimed signature and reads H1 off
its periods.  README's frame section gives what each memo retains.

Every map the mathematics fixes is built in closed form and then
verified; any check that fails where the mathematics says it cannot
raises ``PipelineAssertionError`` instead of producing a weakened
certificate.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, combinations_with_replacement, product, repeat, zip_longest
from operator import mul

from .cosets import SchreierSubgroup, accepted_frame, reidemeister_schreier
from .frames import FrameCertificate, PipelineAssertionError, _theta_images, parity_bits
from .groups import CyclicGroup, DihedralGroup, FiniteHom
from .kernels import KernelSignatureReport
from .presentations import (
    LetterMemo,
    Presentation,
    canonical_presentation,
    check_homomorphism,
    connector_name,
    crosscap_names,
)
from .signatures import NECSignature, area_terms, quotient_disc_signature, reduced_area
from .words import Record, Word


class ActionValidationError(ValueError):
    """The input action datum violates one or more invariants."""

    def __init__(self, reasons: tuple[str, ...]):
        self.reasons = tuple(reasons)
        super().__init__("; ".join(reasons))


# ---------------------------------------------------------------------------
# Action data
# ---------------------------------------------------------------------------

class ActionDatum(Record):
    """Quotient data of a cyclic orientation-reversing action: gamma
    crosscaps, cone orders, n (the action has order 2n), and the images
    of the glide and elliptic generators under rho: Delta -> C_2n, as
    residues reduced mod 2n (when n >= 1; otherwise validation rejects n)."""

    __slots__ = ("gamma", "periods", "n", "d_images", "x_images")

    def __init__(
        self, gamma: int, periods: Iterable[int], n: int, d_images: Iterable[int],
        x_images: Iterable[int],
    ) -> None:
        d_images, x_images = tuple(d_images), tuple(x_images)
        if n >= 1:
            d_images, x_images = (tuple(v % (2 * n) for v in vs) for vs in (d_images, x_images))
        self._assign(gamma, tuple(periods), n, d_images, x_images)

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
    # each period divides n, so n * area = n(gamma - 2) + sum(n - n/n_k) = genus - 1
    if not errors and n * (gamma - 2) + sum(n - n // nj for nj in periods) <= 0:
        sig = NECSignature(False, gamma, periods)
        errors.append(f"signature {sig} is not hyperbolic (reduced area {reduced_area(sig)})")
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
    all of those hold, rho is checked in O(gamma + r) integers, with the
    reasons and order of ``construct_eta``'s surface-kernel check, read on
    Delta: each relator x_k^(n_k), then x_1...x_r d_1^2...d_gamma^2, whose
    image (n_k * x_k, sum(x) + 2 sum(d)) is not 0 mod 2n, spelled out only
    then, as is every name a reason prints;
    gcd(2n, d.., x..) != 1; each x_k of order 2n / gcd(x_k, 2n) != n_k;
    each even glide and odd elliptic image.  The genus is
    1 + n(gamma - 2) + sum(n - n/n_k), Riemann-Hurwitz's 2g - 2 = 2n * area.
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

    n, two_n, periods = datum.n, datum.order, datum.periods
    d_images, x_images = datum.d_images, datum.x_images
    names: list[list[str]] = []

    def spelled() -> list[list[str]]:
        # Delta's names, spelled only for a reason that prints one
        if not names:
            names.extend(crosscap_names(datum.gamma, len(periods)))
        return names

    # each failing relator, x_k^(n_k) by k and then the long relator, with
    # its image; its letters are spelled out only then
    failed = [(k, value) for k, (p, v) in enumerate(zip(periods, x_images))
              if (value := p * v % two_n)]
    if value := (sum(x_images) + 2 * sum(d_images)) % two_n:
        failed.append((None, value))
    for k, value in failed:
        ds, xs = spelled()
        if k is None:
            letters = [*xs, *(d for d in ds for _ in range(2))]
        else:
            letters = repeat(xs[k], periods[k])
        errors.append(f"rho is not a homomorphism: relator {'*'.join(letters)}"
                      f" maps to {decimal(value)}")
    if math.gcd(two_n, *d_images, *x_images) != 1:
        errors.append(f"rho is not surjective onto C_{decimal(two_n)}")
    for k, (p, v) in enumerate(zip(periods, x_images)):
        if (order := two_n // math.gcd(v, two_n)) != p:
            errors.append(f"torsion collapse: {spelled()[1][k]} image {decimal(v)} has order"
                          f" {decimal(order)}, declared {p}")
    errors += [f"orientation mismatch: glide image {spelled()[0][j]} -> {decimal(v)} is even"
               for j, v in enumerate(d_images) if v % 2 == 0]
    errors += [f"orientation mismatch: elliptic image {spelled()[1][k]} -> {decimal(v)} is odd"
               for k, v in enumerate(x_images) if v % 2]
    if errors:
        raise ActionValidationError(tuple(errors))
    return 1 + n * (datum.gamma - 2) + sum(n - n // p for p in periods)


# ---------------------------------------------------------------------------
# theta and the derived kernel
# ---------------------------------------------------------------------------

def build_theta(K: Presentation) -> FiniteHom:
    """The parity map K -> C_2 (``frames.parity_bits``, with gamma read off
    K's signature): interior elliptics and reflections go to the
    non-trivial element, and the connector to gamma mod 2, the parity of
    its closed form x_1^-1...x_gamma^-1: the one image making the long
    relator hold (so the naive image e -> 1 is valid exactly when gamma is
    even).  No frame is certified."""
    return FiniteHom(K, CyclicGroup(2), parity_bits(K.generators, len(K.signature.proper_periods)))


class DerivedKernel(Record):
    """The index-2 kernel of theta: Reidemeister-Schreier presentation
    (with canonical generator names and torsion words), the signature
    claimed for it and checked, and the certified classical relators, each
    label with its status, "trivial" or "matches-relator"."""

    __slots__ = ("subgroup", "signature", "printed_checks")

    def __init__(
        self, subgroup: SchreierSubgroup, signature: NECSignature,
        printed_checks: tuple[tuple[str, str], ...],
    ) -> None:
        self._assign(subgroup, signature, printed_checks)

    @property
    def presentation(self) -> Presentation:
        return self.subgroup.presentation

    @property
    def report(self) -> KernelSignatureReport:  # bench/workloads.py:234, 262; ROADMAP item 12
        return KernelSignatureReport(self.signature)


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
    multiset; some Schreier generator, a frame's, has orientation
    character -1 (``SchreierFrame.reversing``); and the claimed reduced
    area is twice K's (Riemann-Hurwitz at index 2), which with the periods
    and the sign fixes the genus.  The area check cross-multiplies both
    areas' integer terms (``area_terms``), so it holds where K's area is
    0.  A fact that fails raises ``PipelineAssertionError`` naming the
    claimed signature.

    The torsion words are the corner units' rewrites, so each corner of K
    is checked, by one tuple comparison, to be the n_k-th power of its
    unit, at both parities; at odd gamma a corner that is not raises
    naming the claim and the corner.  The classical relators are read off
    the certificate of K's frame (``frames.FrameCertificate``), which
    certifies each corner unit c (spelling tau_k*tau_(k+1)), the closing
    row and the delta-alternations in one ``verify_derived_relators``
    call; a corner row c^(n_k) holds once K's corner is that unit's n_k-th
    power, so a shape certifies no word, and a row that fails names its
    label."""
    sub = reidemeister_schreier(K, theta)
    periods = K.signature.period_cycles[0]
    claim = NECSignature(False, len(K.signature.proper_periods), tuple(sorted(periods)))

    def unproved(reason: str) -> PipelineAssertionError:
        # the claim is printed only when a fact fails
        return PipelineAssertionError(f"derived kernel signature {claim} not certified: {reason}")

    orders = sorted(n for _, n in sub.presentation.torsion_words)
    if orders != list(claim.proper_periods):
        raise unproved(f"torsion word orders {orders} are not the periods")
    if not sub.frame.schreier.reversing:
        raise unproved("no Schreier generator reverses orientation")
    (a, b), (c, d) = area_terms(claim), area_terms(K.signature)
    if a * d != 2 * c * b:
        raise unproved(f"reduced area {Fraction(a, b)} is not twice K's {Fraction(c, d)}")

    frame, r = sub.frame, len(periods)
    corners = K.relators[len(K.relators) - r:]
    if frame.units is None:  # odd gamma: no classical row reads the corners
        for k, (rel, unit, n) in enumerate(zip(corners, frame.schreier.corners, periods), 1):
            if rel.letters != unit * n:
                raise unproved(f"corner {k} of K is not ({Word(unit)})^{n}")
        return DerivedKernel(subgroup=sub, signature=claim, printed_checks=())
    texts = [text for text, _, _ in frame.rows]
    labels = [f"{text}^{p}" for text, p in zip(texts, periods)] + texts[r:]
    units = frame.units.relators
    fits = [rel.letters == unit.letters * p
            for rel, unit, p in zip(corners, units[len(units) - r:], periods)]
    for label, status, fit in zip_longest(labels, frame.statuses, fits, fillvalue=True):
        if status == "unresolved" or not fit:
            raise PipelineAssertionError(f"classical relator {label} could not be certified")
    return DerivedKernel(subgroup=sub, signature=claim,
                         printed_checks=tuple(zip(labels, frame.statuses)))


# ---------------------------------------------------------------------------
# Lemma: conjugation by tau1 inverts the abelianized kernel
# ---------------------------------------------------------------------------

class LemmaReport(Record):
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

    __slots__ = ("connector_pair", "inversion_entries", "invariant_factors", "free_rank")

    def __init__(
        self, connector_pair: tuple[str, str], inversion_entries: tuple[str, ...],
        invariant_factors: tuple[int, ...], free_rank: int,
    ) -> None:
        self._assign(connector_pair, inversion_entries, invariant_factors, free_rank)

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
    lows = [x & -x for x in orders]
    orders[lows.index(max(lows))] *= 2
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

    None of this reads the periods, so it is certified once per frame
    (gamma, r), in the certificate of the frame the subgroup keeps
    (``frames.FrameCertificate``): the Schreier generators and the
    witness rows, with their exponent sums, are its
    ``cosets.SchreierFrame``'s, and the identities were certified in the
    frame's generators when it was built (``inverted``); the pair is read
    off its pair names.  Per call, the rows are found where they stand
    among the relators of the ``derived`` it is given, or else looked up
    among them, and the sums are compared with a*b's.

    H1 itself is read off the signature (gamma; -; [n_1..n_r]) that
    ``derive_delta_hat`` certified, as an NEC group is determined by its
    signature (Macbeath, Canad. J. Math. 19, 1967): Z^(gamma-1) plus the
    finite direct sum of cyclic groups that ``_torsion_factors`` gives."""
    frame = derived.subgroup.frame
    schreier = frame.schreier
    e = connector_name(derived.subgroup.base)
    a, b = pair = tuple(schreier.subgroup.pair_names[u, e] for u in (0, 1))
    (first, second), relators = schreier.rows, derived.presentation.relators
    i, r = len(first), len(derived.presentation.torsion_words)
    if not (schreier.witnessed and len(relators) == i + len(second) + 2 * r
            and relators[:i] == first and relators[i + r:i + r + len(second)] == second):
        relators = {rel.letters for rel in relators}
        for row, word, coset in schreier.witness:
            if row.letters not in relators:
                raise PipelineAssertionError(
                    f"connector product {a}*{b}: witness row {row} ({word} from coset"
                    f" {coset}) is not a relator of the derived kernel"
                )
    if schreier.sums != {a: 1, b: 1}:
        raise PipelineAssertionError(
            f"connector product {a}*{b}: witness rows sum to {schreier.sums}, not to {a}*{b}"
        )

    sig = derived.signature
    return LemmaReport(
        connector_pair=pair,
        inversion_entries=frame.inverted,
        invariant_factors=_torsion_factors(sig.proper_periods),
        free_rank=sig.genus - 1,
    )


# ---------------------------------------------------------------------------
# The shape stage: everything that depends on (gamma, periods) alone
# ---------------------------------------------------------------------------

class ShapeCertificate(Record):
    """K, theta, the derived kernel, the lemma report and K's reduced area
    (``area_terms``) of one quotient shape (gamma; -; [n_1..n_r]), each
    checked; shared by every certificate of that shape and never mutated
    but for ``json_runs``, outside ``_fields``: None until
    ``certificate.render`` keeps the shape's JSON text and keys there.
    ``frame`` is the certificate of K's frame, which the derived kernel's
    subgroup keeps: the rho stage reads it."""

    __slots__ = ("k_presentation", "theta", "derived", "lemma", "k_area", "json_runs")
    _fields = __slots__[:5]

    def __init__(
        self, k_presentation: Presentation, theta: FiniteHom, derived: DerivedKernel,
        lemma: LemmaReport, k_area: tuple[int, int],
    ) -> None:
        self._assign(k_presentation, theta, derived, lemma, k_area)
        self._keep("json_runs", None)

    @property
    def frame(self) -> FrameCertificate:
        return self.derived.subgroup.frame


@partial(LetterMemo, weight=lambda gamma, ns: 3 * gamma + 2 * len(ns) + 7 + 2 * sum(ns))
def shape_certificate(gamma: int, periods: tuple[int, ...]) -> ShapeCertificate:
    """The rho-independent stage of ``realize``, in its order: K and
    theta, theta a homomorphism, ``derive_delta_hat`` (which claims and
    checks the kernel's signature, the index-2 area identity included) and
    ``lemma1_check``.  A failed check raises ``PipelineAssertionError``.
    Theta is accepted as its frame's parity map with each corner of K its
    unit's power (``cosets.accepted_frame``): no relator is walked.

    Memoised by the letters of K (``LetterMemo``); a call that raises is
    not memoised, so it raises again on the next call.  The shape is not
    checked here: ``realize`` calls this only after ``validate_action``
    has accepted the datum."""
    K = canonical_presentation(quotient_disc_signature(gamma, periods))
    theta = build_theta(K)
    frame, corners = accepted_frame(K, theta), K.relators[len(K.relators) - len(periods):]
    if frame is None or any(rel.letters != unit * n for rel, unit, n
                            in zip(corners, frame.schreier.corners, periods)):
        raise PipelineAssertionError("parity map theta is not a homomorphism")

    derived = derive_delta_hat(K, theta)
    return ShapeCertificate(k_presentation=K, theta=theta, derived=derived,
                            lemma=lemma1_check(derived), k_area=area_terms(K.signature))


# ---------------------------------------------------------------------------
# Theta on K, and eta as its restriction to the derived kernel
# ---------------------------------------------------------------------------

class DihedralExtension(Record):
    """Theta: K -> D_2n as each image's rotation, in K's generator order,
    and its image order 4n, the index of ker(Theta) in K.  K's frame fixes
    the flips: Theta(g) = t^theta(g)*s^k, theta the shape's parity map.
    ``reflection_rotation`` and ``kernel_index`` are kept for bench/."""

    __slots__ = ("rotations", "image_order")
    reflection_rotation = 0  # bench/layers.py:63; ROADMAP item 12

    @property
    def kernel_index(self) -> int:  # bench/workloads.py:240; ROADMAP item 12
        return self.image_order

    def __init__(self, rotations: tuple[int, ...], image_order: int) -> None:
        self._assign(rotations, image_order)


def _check_fits(shape: ShapeCertificate, datum: ActionDatum) -> None:
    """Raise ``ValueError`` naming both shapes unless the datum is of the shape's."""
    sig = shape.k_presentation.signature
    if (own := (len(sig.proper_periods), sig.period_cycles[0])) != (datum.gamma, datum.periods):
        raise ValueError(f"a datum of shape {datum.delta_signature()} does not fit the"
                         f" shape certificate of {NECSignature(False, *own)}")


def extend_to_dihedral(shape: ShapeCertificate, datum: ActionDatum) -> DihedralExtension:
    """Theta: K -> D_2n on the shape's K, in K's generator order, from rho
    in closed form (``_theta_images``): Theta(x_j) = t*s^((-1)^j d_j),
    Theta(e) the normal form of e's closed form, forced by the long
    relator, Theta(tau1) = t and Theta(tau_(k+1)) = t*s^(x_1 + ... + x_k).
    Theta is then verified to be a homomorphism on K with image of order
    4n, so ker(Theta) has index 4n in K.  Only the relators that K's frame
    does not certify for every rho are walked, as (index, exponent)
    letters (``check_homomorphism`` on ``FrameCertificate.walk``): the
    connector relator e^-1*tau_(r+1)*e*tau1^-1, four letters; each corner
    maps to n_k times its unit's rotation, b - a for the reflections
    Theta(tau_k) = t*s^a and Theta(tau_(k+1)) = t*s^b.  The image order
    is a gcd.  No name is read.  A failed check raises
    ``PipelineAssertionError`` naming it: the first relator that does not
    hold, with its image.  A datum of another shape raises ``ValueError``.
    """
    _check_fits(shape, datum)
    frame, dihedral, cycle = shape.frame, DihedralGroup(datum.order), datum.periods
    glides = [-d if j % 2 else d for j, d in enumerate(datum.d_images, start=1)]
    images = _theta_images(frame.connector, dihedral, glides, accumulate(datum.x_images))
    _, rotations = zip(*images)
    taus, relators = rotations[datum.gamma + 1:], shape.k_presentation.relators
    unmapped = (*check_homomorphism(frame.folds, images, dihedral, frame.walk), *(
        (corner, (0, value)) for corner, n, a, b in zip(relators[len(relators) - len(cycle):],
                                                        cycle, taus, taus[1:])
        if (value := n * (b - a) % dihedral.modulus)))
    for rel, value in unmapped:
        raise PipelineAssertionError(
            f"Theta is not a homomorphism: relator {rel} maps to {dihedral.format(value)}"
        )
    image_order = dihedral.subgroup_order(images)
    if image_order != dihedral.order:
        raise PipelineAssertionError(
            f"Theta image has order {image_order}, expected 4n = {dihedral.order}"
        )
    return DihedralExtension(rotations, image_order)


class EtaResult(Record):
    """eta onto C_2n, as its image of each generator of the derived kernel
    in their order, and its torsion images, rho's elliptic images (the
    branch match has unit 1; ``unit`` is a constant kept for bench/)."""

    __slots__ = ("images", "torsion_images")
    unit = 1  # bench/workloads.py:241; ROADMAP item 12

    def __init__(self, images: tuple[int, ...], torsion_images: tuple[int, ...]) -> None:
        self._assign(images, torsion_images)


def construct_eta(shape: ShapeCertificate, datum: ActionDatum) -> EtaResult:
    """Epimorphism of the shape's derived kernel onto C_2n carrying exactly
    the branch data of rho: the restriction of Theta, eta(g) = the rotation
    Theta(g.word) for each kernel generator g, read off the record of K's
    frame (``eta``) as its certified form at rho's images, in the
    generators' order.

    The result is verified to be a surface-kernel epimorphism, with every
    reason found, in this order: relators that do not map to the identity,
    non-surjectivity (a gcd), torsion words whose image has lost order,
    and images whose parity differs from their generator's orientation
    character (one comparison with the frame's ``parities``, itemised only
    when it fails); then its torsion images must equal rho's elliptic
    images in order.  No relator is walked: each folds as the relator of K
    it rewrites, so only the heads of the relators Theta walks are
    evaluated at rho, and each corner row holds once its torsion word's
    order divides n_k; a torsion word is evaluated as its frame's (index,
    exponent) letters.  No name is read but for a reason.  A failed check
    raises ``PipelineAssertionError`` naming it, and a datum of another
    shape raises ``ValueError``.
    """
    _check_fits(shape, datum)
    target, frame = CyclicGroup(datum.order), shape.frame
    pres, modulus = shape.derived.presentation, target.modulus
    variables, coefficients, others, residual, torsion = frame.eta
    # each variable's value: d_j at j, x_1 + ... + x_k at -k
    values = [0, *datum.d_images, *reversed(list(accumulate(datum.x_images)))]

    def at(vs: tuple, cs: tuple) -> int:
        return sum(map(mul, map(values.__getitem__, vs), cs)) % modulus

    images = [c * values[v] % modulus for v, c in zip(variables, coefficients)]
    for i, vs, cs in others:
        images[i] = at(vs, cs)
    problems = [f"eta is not a homomorphism: relator {row} maps to {decimal(v)}"
                for vs, cs, rows in residual if (value := at(vs, cs))
                for row, v in zip(rows, (value, modulus - value))]
    if target.subgroup_order(images) != modulus:
        problems.append(f"eta is not surjective onto C_{decimal(modulus)}")
    torsion_images = tuple(target.normal_form(images, letters) for letters in torsion)
    for (word, n), image in zip(pres.torsion_words, torsion_images):
        if (order := target.element_order(image)) != n:
            problems.append(f"torsion collapse: {word} image {decimal(image)} has order"
                            f" {decimal(order)}, declared {n}")
    if tuple(map((1).__and__, images)) != frame.parities:  # each image's parity
        problems += [f"orientation mismatch: {kind.kind} image {name} -> {decimal(v)} is"
                     f" {'odd' if v % 2 else 'even'}"
                     for (name, kind), v, bit in zip(pres.generators, images, frame.parities)
                     if v % 2 != bit]
    if problems:
        raise PipelineAssertionError("eta: " + "; ".join(problems))
    if torsion_images != datum.x_images:
        raise PipelineAssertionError(
            f"eta: torsion images {list(torsion_images)} differ from rho's elliptic"
            f" images {list(datum.x_images)}"
        )
    return EtaResult(tuple(images), torsion_images)


# ---------------------------------------------------------------------------
# End-to-end realization
# ---------------------------------------------------------------------------

class RealizationCertificate(Record):
    """Complete audit trail: every object of the construction,
    re-checkable without recomputation.  ``realize`` raises at the first
    check that fails, so a certificate holds values, not verdicts: the
    quotient signature is ``datum.delta_signature()``, K's is
    ``k_presentation.signature``, theta's connector exponent is its image
    of the connector, the area ratio is 2, and the real surface has genus
    ``genus``.  K, theta, the derived kernel and the lemma are the shape
    certificate's.  ``conclusion`` is a constant kept for bench/."""

    __slots__ = ("datum", "genus", "shape", "eta", "extension")
    conclusion = True  # bench/workloads.py:243; ROADMAP item 12
    k_presentation = property(lambda self: self.shape.k_presentation)
    theta = property(lambda self: self.shape.theta)
    derived = property(lambda self: self.shape.derived)
    lemma = property(lambda self: self.shape.lemma)

    def __init__(
        self, datum: ActionDatum, genus: int, shape: ShapeCertificate, eta: EtaResult,
        extension: DihedralExtension,
    ) -> None:
        self._assign(datum, genus, shape, eta, extension)


def realize(datum: ActionDatum) -> RealizationCertificate:
    """Run the full chain and emit the certificate, in two stages.

    ``validate_action`` runs first, on every call, so invalid input never
    reaches the shape stage.  ``shape_certificate(gamma, periods)`` then
    gives K, theta, the derived kernel and the lemma report, built and
    checked once per shape and memoised by the letters of K it holds
    (``presentations.LetterMemo``); a new shape reuses the certificate of
    its frame (gamma, r) and checks only its corners.  The rho stage
    follows on the shape certificate: ``extend_to_dihedral``,
    ``construct_eta`` and the genus bookkeeping: validation's genus, read
    off Delta, against Riemann-Hurwitz for ker(Theta) at index
    ``image_order`` in K, on the integer terms of K's area.  The first two
    read their relators off the frame's certificate: each walks at most
    one relator of K, four letters, reads each corner off its unit, and
    walks no relator of the derived kernel, so the rho stage is
    O(gamma + r) integer steps.

    Raises ``ActionValidationError`` on invalid input and
    ``PipelineAssertionError`` if an internal step fails where the
    construction guarantees success.
    """
    genus = validate_action(datum)
    shape = shape_certificate(datum.gamma, datum.periods)
    extension = extend_to_dihedral(shape, datum)
    eta = construct_eta(shape, datum)

    (numerator, denominator), index = shape.k_area, extension.image_order
    if 2 * (genus - 1) * denominator != index * numerator:
        raise PipelineAssertionError(f"genus bookkeeping disagrees: {genus} vs"
                                     f" {Fraction(index * numerator, 2 * denominator) + 1}")
    return RealizationCertificate(datum, genus, shape, eta, extension)


# ---------------------------------------------------------------------------
# Surface-kernel epimorphisms onto C_2n: the first one, and all of them
# ---------------------------------------------------------------------------

class EnumerationResult(Record):
    __slots__ = ("tuples",)

    def __init__(self, tuples: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]) -> None:
        self._assign(tuples)

    @property
    def count(self) -> int:
        return len(self.tuples)


def _check_search_shape(gamma: int, periods: tuple[int, ...], order: int) -> None:
    """Raise ``ActionValidationError`` unless the searches take the shape,
    with the reasons of ``shape_problems(gamma, periods, n)`` for an even
    order 2n and one naming an odd order.  The searches index by machine
    integers, so an otherwise admissible shape gets one reason each for an
    order or a gamma above ``sys.maxsize``."""
    reasons = ([f"order {order} is odd: the action order must be 2n with n even"] if order % 2
               else shape_problems(gamma, periods, order // 2))
    if not reasons:
        if order > sys.maxsize:
            reasons.append(f"order {decimal(order)} exceeds {sys.maxsize}, the largest order"
                           " the search can index")
        if gamma > sys.maxsize:
            reasons.append(f"gamma = {gamma} exceeds {sys.maxsize}, the most glides"
                           " the search can index")
    if reasons:
        raise ActionValidationError(tuple(reasons))


def _has_epimorphism(gamma: int, periods: tuple[int, ...], order: int) -> bool:
    """Whether a surface-kernel epimorphism onto C_order, order = 2n, exists
    for an admissible shape, in O(r) gcds: exactly when gamma + #{k : n/n_k
    odd} is even, and gamma >= 2 or the odd part of n divides
    lcm(n_1, ..., n_r).  Split by the CRT over the prime powers of 2n:
    - at 2, each glide image is odd and each x_k = 2*(n/n_k)*u_k with u_k
      a unit mod n_k, odd where n/n_k is; halved, the long relator reads
      sum(d) + sum((n/n_k)*u_k) = 0 mod n, n even, so it needs an even
      number of odd terms, and the odd glides generate;
    - at an odd prime p, 2 is a unit, so one glide solves the relator, and
      a second can be a unit; with gamma = 1 that glide is forced, and is
      0 mod p when every x_k is, so some x_k must be a unit at p, that is
      v_p(n_k) = v_p(n)."""
    n = order // 2
    if (gamma + sum(n // p % 2 for p in periods)) % 2:
        return False
    return gamma >= 2 or math.lcm(*periods) % (n // (n & -n)) == 0


def enumerate_smooth_epimorphisms(
    gamma: int, periods: tuple[int, ...], order: int
) -> EnumerationResult:
    """All surface-kernel epimorphisms of the crosscap group
    (gamma; -; [periods]) onto C_order, as raw image tuples.

    Conditions: each elliptic image has exactly its declared order, each
    glide image is odd, the long relator sums to zero, and the images
    generate.  An elliptic image of period p is (order/p)*u with u a unit
    mod p, so every elliptic tuple has the same gcd with order, order /
    lcm(periods) (order itself when r = 0), and the elliptic product is
    listed once, grouped by its sum mod order.  The first gamma - 1 glides
    are walked in product order, each prefix carrying its state: twice its
    sum mod order, and its gcd with order / lcm(periods).  Each state's
    moves on one glide, and its block of last glide values that keep the
    images generating, each with the elliptic tuples that then close the
    long relator, are built once.  So the output is in lexicographic order
    over (d_1..d_gamma, x_1..x_r), and the cost is (order/2)^(gamma-1)
    prefixes, plus at most order * tau(order) states of order/2 glide
    values each (tau counting divisors), plus the elliptic product, plus
    the output; a shape with no epimorphism lists nothing at once
    (``_has_epimorphism``).  Counts are raw, with no quotient by any
    equivalence.  Raises ``ActionValidationError``, itemised as for
    ``realize``, when the shape is not admissible (``_check_search_shape``).
    """
    _check_search_shape(gamma, periods, order)
    if not _has_epimorphism(gamma, periods, order):
        return EnumerationResult(())
    by_sum: dict[int, list[tuple[int, ...]]] = {}
    for x_images in product(*([order // p * u for u in range(1, p) if math.gcd(u, p) == 1]
                              for p in periods)):
        by_sum.setdefault(sum(x_images) % order, []).append(x_images)

    @cache
    def step(total: int, g: int) -> list[tuple[int, tuple[int, int]]]:
        return [(v, ((total + 2 * v) % order, math.gcd(g, v))) for v in range(1, order, 2)]

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
    datum, or None at once when ``_has_epimorphism`` says there is none;
    ``ActionValidationError`` as for ``enumerate_smooth_epimorphisms``.

    A greedy descent gives each letter d_1..d_gamma, x_1..x_r its least
    image whose suffix still completes, so no candidate is listed:
    d_1..d_(gamma-1) = 1, since a suffix with a glide completes by the
    parity of ``_has_epimorphism`` alone.  By its per-prime conditions,
    periods[j:], of lcm A, complete a prefix of relator sum s and gcd g
    with the order iff M = order/A divides t = -s mod order, gcd(g, n/A)
    = 1, t/M has the parity of the number of periods that attain A's
    2-adic valuation (A even), and t/M is prime to the odd part of A/B,
    B the lcm of each period's gcd with the lcm of those after it: a
    prime divides A/B where one period alone attains A's valuation.  An
    image scale*c steps through the progression of c that M | t leaves to
    the first c that passes, in O(gamma + r) operations and a few steps,
    or raises ``PipelineAssertionError``.
    """
    _check_search_shape(gamma, periods, order)
    if not _has_epimorphism(gamma, periods, order):
        return None
    n, r = order // 2, len(periods)
    lcms, seconds, parities = [1] * (r + 1), [1] * (r + 1), [0] * (r + 1)
    for j in reversed(range(r)):
        p, a = periods[j], lcms[j + 1]
        lcms[j], seconds[j] = math.lcm(a, p), math.lcm(seconds[j + 1], math.gcd(a, p))
        low, top = p & -p, a & -a
        parities[j] = 1 if low > top else parities[j + 1] ^ (low == top)

    def completes(j: int, s: int, g: int) -> bool:  # given M | t
        a, odd = lcms[j], lcms[j] // seconds[j]
        t = -s % order // (order // a)
        return (math.gcd(g, n // a) == 1 and (a % 2 == 1 or t % 2 == parities[j])
                and math.gcd(t, odd // (odd & -odd)) == 1)

    images = [1] * (gamma - 1)
    s, g = 2 * (gamma - 1), order if gamma == 1 else 1
    for j, (weight, scale, unit) in enumerate([(2, 1, 2), *((1, order // p, p) for p in periods)]):
        # the suffix periods[j:] needs weight*scale*c = -s mod M: c = start mod step
        m = order // lcms[j]
        h = math.gcd(weight * scale, m)
        step, (start, rest) = m // h, divmod(-s % m, h)
        start = start * pow(weight * scale // h, -1, step) % step or step
        image = next((scale * c for c in range(start, 0 if rest else order // scale, step)
                      if math.gcd(c, unit) == 1
                      and completes(j, s + weight * scale * c, math.gcd(g, scale * c))), None)
        if image is None:
            raise PipelineAssertionError(f"first epimorphism: no image of letter {gamma + j}")
        images.append(image)
        s, g = s + weight * image, math.gcd(g, image)
    return ActionDatum(gamma, periods, n, images[:gamma], images[gamma:])
