"""Reidemeister-Schreier presentation of the index-2 kernel of theta.

The construction derives one subgroup: the kernel of the parity map
theta from a single-boundary disc-quotient group K onto C_2, which moves
every reflection and every interior point; K has at least one interior
point, and each is an involution.  Theta is its bit on each of K's
generators, a tuple in K's generator order, as K's frame holds it
(``frames.parity_bits``).  This module alone reads theta and checks
those conditions.
The Schreier coset representatives are therefore fixed, {1, tau_1} (the
doubled fundamental domain), and the coset of a word is the theta-parity
bit of its prefix.  Each pair (coset c, generator g) gives the Schreier
word rep(c) * g * rep(c xor theta(g))^-1; only (0, tau_1) is trivial.
Every generator is born with its canonical name, role and orientation
kind: the glides delta_j = tau_1 x_j, c_k = tau_1 tau_(k+1), the connector
pair e1, e2 (theta(e) = 0, gamma even) or f1, f2 (theta(e) = 1, gamma
odd), the tau_1-conjugates delta_jt and c_kt, and tau1sq.  The kernel's
torsion words are K's corners, rewritten here, so
``pipeline.derive_delta_hat`` checks its claimed signature against the
subgroup without theta.  The periods enter only K's last r relators, the
corners (tau_k tau_(k+1))^(n_k), and the torsion orders, so everything
else is derived once per frame (gamma, r), a ``SchreierFrame``: the
Schreier generators from K's generators with their kinds and theta's
parity and the rewrites of the other relators and of each corner unit,
built with the rest of K's frame certificate
(``presentations.certify_frame``), which certifies the lemma's witness
among those rows; a K that is not its frame plus its corner powers is
refused (``accepted_frame``).  Each subgroup keeps its frame's
certificate, and per shape only each corner unit's rewrite is raised to
its period.

Rewriting a kernel word walks the parity bit letter by letter.  A walk
started at coset 1 rewrites the tau_1-conjugate of the word without
building it; the derived relators are read that way, and a corner's as
a power.
The derived presentation is simplified only by freely reducing the
rewritten relators and de-duplicating the frame's rows; nothing more
aggressive, so the correspondence with the ambient group stays auditable.
"""

from __future__ import annotations

from math import prod

from .presentations import Presentation, certify_frame
from .signatures import CONNECTOR, GLIDE, GeneratorKind
from .words import Record, Word


class NotInKernelError(ValueError):
    """A word handed to the rewriting map does not lie in the kernel."""


class SchreierGenerator(Record):
    """One non-trivial Schreier generator rep(c) * g * rep(c g)^-1, its
    ``word`` freely reduced in the ambient generators.  Its pair (coset c,
    generator g) is the key of its name in ``SchreierSubgroup.pair_names``."""

    __slots__ = ("name", "word", "role")

    def __init__(self, name: str, word: Word, role: str) -> None:
        self._assign(name, word, role)


class SchreierSubgroup(Record):
    """Reidemeister-Schreier data for ker(theta): generators, derived
    presentation (with its torsion words) and the rewriting map into it.
    ``pair_names`` names the Schreier generator of each (coset, generator)
    pair, or None for the trivial pair (0, tau_1); ``parity`` is theta's
    bit on each generator.  ``frame`` is the certificate of K's frame
    (``frames.FrameCertificate``), which the subgroup was derived in and
    which holds its ``SchreierFrame``: a slot outside ``_fields`` that a
    copy keeps.  A frame's own subgroup has no ``base``, no relators and
    no ``frame``."""

    __slots__ = ("base", "generators", "presentation", "pair_names", "parity", "frame")
    _fields = __slots__[:5]

    def __init__(
        self, base: Presentation | None, generators: tuple[SchreierGenerator, ...],
        presentation: Presentation, pair_names: dict[tuple[int, str], str | None],
        parity: dict[str, int], frame: FrameCertificate | None = None,
    ) -> None:
        self._assign(base, generators, presentation, pair_names, parity)
        self._keep("frame", frame)

    def __reduce__(self):
        return type(self), (*self._values(), self.frame)

    def rewrite(self, w: Word, coset: int = 0) -> Word:
        """Express a word in the Schreier generators by walking the parity
        bit from ``coset``.  From coset 0 this is the rewrite of the kernel
        word ``w``; from coset 1 it is the rewrite of tau_1 * w * tau_1^-1,
        read without building that conjugate.  The walk must end where it
        started, or ``NotInKernelError`` is raised."""
        parity, pair_names = self.parity, self.pair_names
        out: list[tuple[str, int]] = []  # freely reduced as it grows
        start = coset
        for g, e in w.letters:
            if e == 1:
                name = pair_names[(coset, g)]
                coset ^= parity[g]
            else:
                coset ^= parity[g]
                name = pair_names[(coset, g)]
            if name is not None:
                if out and out[-1] == (name, -e):
                    out.pop()
                else:
                    out.append((name, e))
        if coset != start:
            raise NotInKernelError(
                f"{w} is not in the kernel (the walk from coset {start} ends at coset {coset})"
            )
        return Word.unchecked(tuple(out))


class SchreierFrame(Record):
    """What ``reidemeister_schreier`` derives without the periods, once per
    frame (gamma, r) (``schreier_frame``): ``subgroup`` holds the Schreier
    generators, their kinds and the rewriting map; ``heads`` the rewrites
    of K's relators but the corners from cosets 0 and 1; ``corners`` the
    rewrites of each corner tau_k*tau_(k+1) from both cosets, keyed by its
    letters.  ``rows`` are the heads of each coset, each kept if it is not
    empty and no earlier head has its letters; ``reversing`` says that a
    Schreier generator reverses orientation.  K's frame certificate holds
    it (``frames.FrameCertificate.schreier``), and certifies the lemma's
    witness among its rows."""

    __slots__ = ("subgroup", "heads", "corners", "rows", "reversing")

    def __init__(
        self, subgroup: SchreierSubgroup, heads: tuple[tuple[Word, ...], ...],
        corners: dict[tuple, tuple[Word, Word]], rows: tuple[tuple[Word, ...], ...],
        reversing: bool,
    ) -> None:
        self._assign(subgroup, heads, corners, rows, reversing)


def reidemeister_schreier(p: Presentation, theta: tuple[int, ...]) -> SchreierSubgroup:
    """Presentation of ker(theta) over the coset representatives {1, tau_1},
    with its torsion words; theta is its bit on each generator of ``p``,
    in p's generator order.

    Raises ``ValueError``, naming what fails, unless theta is K's parity
    map: one int 0 or 1 per generator, ``p`` carries a signature with a
    single period cycle, has a reflection and at least one interior
    point, each an involution, and theta has index 2, moves every
    reflection and interior point (so 1 and tau_1 represent the two
    cosets) and sends the connector to the parity the long relator
    forces.  ``p`` must be its frame (gamma, r)
    (``presentations.disc_quotient_frame``) plus its r corners
    (tau_k*tau_(k+1))^(n_k): its generators and its relators but the
    corners are the frame's, or a ``ValueError`` names each that is not.
    K and theta are accepted by comparisons with the frame
    (``accepted_frame``), or else checked item by item (``_checked_frame``).

    All of the subgroup but the corner powers is the frame's
    ``SchreierFrame``'s, and it keeps the frame's certificate.  Generators
    come in canonical order: delta_j, c_k, the connector pair, delta_jt,
    c_kt, tau1sq.  Relators are the rewritten conjugates u * R * u^-1 of
    K's relators for u = 1, then u = tau_1, each the walk of R from coset
    u: the frame's rows, then each corner unit's rewrite to the n_k,
    freely reduced, as the frame certified the rewrite cyclically reduced.
    Torsion words: each corner unit's rewrite from coset 0, of its full
    order n_k; each interior involution is moved, so it leaves no period."""
    frame = _checked_frame(p, theta)
    schreier, cycle = frame.schreier, p.signature.period_cycles[0]
    sub, (first, second), rewrites = schreier.subgroup, schreier.rows, schreier.corners.values()
    powers = [[pair[u] ** n for pair, n in zip(rewrites, cycle)] for u in (0, 1)]
    relators = (*first, *powers[0], *second, *powers[1])
    presentation = Presentation(sub.presentation.generators, relators,
                                zip((w for w, _ in rewrites), cycle))
    return SchreierSubgroup(p, sub.generators, presentation, sub.pair_names, sub.parity, frame)


def accepted_frame(p: Presentation, theta: tuple[int, ...]) -> FrameCertificate | None:
    """K's frame certificate if K is the frame plus its corners and theta
    the frame's parity vector, by comparisons a canonical K and theta cut
    short, gamma, r and each n_k read off K's signature; else None.  Theta
    is one comparison with the frame's bits, and corner k, here alone, one
    with the n_k-th power of its unit tau_k*tau_(k+1), a key of the frame's
    ``SchreierFrame.corners``, which rewrote the frame's relators and each
    unit: so theta kills them."""
    sig = p.signature
    if sig is not None and len(sig.period_cycles) == 1 and sig.proper_periods:
        cycle = sig.period_cycles[0]
        frame = certify_frame(len(sig.proper_periods), len(cycle))
        head = len(p.relators) - len(cycle)
        if (p.generators == frame.presentation.generators
                and p.relators[:head] == frame.presentation.relators
                and theta == tuple(frame.schreier.subgroup.parity.values())
                and all(rel.letters == unit * n for rel, unit, n
                        in zip(p.relators[head:], frame.schreier.corners, cycle))):
            return frame
    return None


def _checked_frame(p: Presentation, theta: tuple[int, ...]) -> FrameCertificate:
    """K's frame certificate, as ``accepted_frame`` accepts it, or else a
    ``ValueError`` that itemises what fails; generators are named, by
    zipping theta with them, and each corner compared again, only here."""
    if frame := accepted_frame(p, theta):
        return frame
    names = p.generator_names()
    bits = [] if len(theta) == len(names) else [
        f"theta has {len(theta)} bits, K {len(names)} generators"]
    bits += [f"theta sends {g} to {bit!r}, not the int 0 or 1"
             for g, bit in zip(names, theta) if type(bit) is not int or bit not in (0, 1)]
    if bits:
        raise ValueError("; ".join(bits))
    if p.signature is None or len(p.signature.period_cycles) != 1:
        raise ValueError("only single-boundary disc quotients are supported")
    reflections = p.generators_of_kind("reflection")
    if not reflections:
        raise ValueError("K has no reflection tau_1 to represent the second coset")
    elliptics = p.generators_of_kind("elliptic")
    if not elliptics:
        raise ValueError(
            "K needs at least one interior cone point (the kernel is orientable otherwise)"
        )
    involutions = p.involution_names()
    higher = [x for x in elliptics if x not in involutions]
    if higher:
        raise ValueError(f"every interior point must be an involution, unlike {', '.join(higher)}")
    if not any(theta):
        raise ValueError("theta has index 1, expected 2")
    parity = dict(zip(names, theta))
    fixed = [g for g in reflections + elliptics if not parity[g]]
    if fixed:
        raise ValueError(
            f"theta must move every reflection and interior point, and fixes {', '.join(fixed)}"
        )
    cycle = p.signature.period_cycles[0]
    frame = certify_frame(len(elliptics), len(cycle))
    base, prefix = frame.presentation, p.relators[:len(p.relators) - len(cycle)]
    problems = [] if p.generators == base.generators else ["its generators are not the frame's"]
    if len(p.signature.proper_periods) != len(elliptics):
        problems.append(f"its signature has {len(p.signature.proper_periods)} interior points")
    if len(prefix) != len(base.relators):
        problems.append(f"it has {len(prefix)} relators before its {len(cycle)} corners,"
                        f" the frame {len(base.relators)}")
    else:
        problems += [f"its relator {rel} is not the frame's {want}"
                     for rel, want in zip(prefix, base.relators) if rel != want]
    corners = zip(p.relators[len(prefix):], frame.schreier.corners, cycle)
    problems += [f"its corner {k} is not ({Word(unit)})^{n}"
                 for k, (rel, unit, n) in enumerate(corners, start=1) if rel.letters != unit * n]
    if problems:
        raise ValueError(f"K is not its frame ({len(elliptics)}, {len(cycle)}) plus its"
                         f" corners: {'; '.join(problems)}")
    wrong = [g for g, bit in frame.schreier.subgroup.parity.items() if parity[g] != bit]
    if wrong:
        raise ValueError(f"theta must send {', '.join(wrong)} to the parity the long relator"
                         " forces")
    return frame


def schreier_frame(
    generators: tuple[tuple[str, GeneratorKind], ...], prefix: tuple[Word, ...],
    parity: dict[str, int],
) -> SchreierFrame:
    """The ``SchreierFrame`` of K's generators with their kinds, K's
    relators but the corners (``prefix``) and theta's bit on each
    generator; it reads only its arguments."""
    reflections, elliptics, connectors = ([g for g, kind in generators if kind.kind == k]
                                          for k in ("reflection", "elliptic", "connector"))
    tau1 = reflections[0]
    # letters of the representatives 1, tau_1 and of their inverses; only
    # the trivial pair (0, tau_1), tau_1 * tau_1^-1, would cancel, and it
    # is never built, so each generator word is freely reduced as built
    reps, rep_inverses = ((), ((tau1, 1),)), ((), ((tau1, -1),))

    # (coset, base generator, name, role), in canonical order
    pairs = [(1, x, f"delta{j}", "glide") for j, x in enumerate(elliptics, start=1)]
    pairs += [(1, t, f"c{k}", "corner rotation") for k, t in enumerate(reflections[1:], start=1)]
    conjugates = [(0, g, name + "t", role + " (tau1-conjugate)") for _, g, name, role in pairs]
    for e in connectors:
        letter = "ef"[parity[e]]
        pairs += [(0, e, f"{letter}1", "connector"), (1, e, f"{letter}2", "connector")]
    conjugates.append((1, tau1, "tau1sq", "reflection square (trivial in K)"))

    pair_names: dict[tuple[int, str], str | None] = {(0, tau1): None}
    schreier: list[SchreierGenerator] = []
    for coset, g, name, role in pairs + conjugates:
        word = Word.unchecked(reps[coset] + ((g, 1),) + rep_inverses[coset ^ parity[g]])
        pair_names[(coset, g)] = name
        schreier.append(SchreierGenerator(name, word, role))

    chars = {g: kind.character for g, kind in generators}
    kinds = ((gen.name, GLIDE if prod(chars[g] for g, _ in gen.word.letters) == -1
              else CONNECTOR) for gen in schreier)
    subgroup = SchreierSubgroup(None, tuple(schreier), Presentation(kinds, ()), pair_names, parity)
    heads = tuple(tuple(subgroup.rewrite(rel, u) for rel in prefix) for u in (0, 1))
    units = (((a, 1), (b, 1)) for a, b in zip(reflections, reflections[1:]))
    corners = {
        unit: (subgroup.rewrite(Word(unit)), subgroup.rewrite(Word(unit), 1)) for unit in units}

    seen = {()}
    rows = tuple(tuple(w for w in head if w.letters not in seen and not seen.add(w.letters))
                 for head in heads)
    return SchreierFrame(subgroup, heads, corners, rows,
                         any(kind.character == -1 for _, kind in subgroup.presentation.generators))
