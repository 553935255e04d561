"""Reidemeister-Schreier presentation of the index-2 kernel of theta.

The construction derives one subgroup: the kernel of the parity map
theta from a single-boundary disc-quotient group K onto C_2, which moves
every reflection and every interior point; K has at least one interior
point, and each is an involution.  This module alone reads theta and
checks those conditions.
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
parity, the rewrites of the other relators, and the lemma's witness rows
among them, built with the rest of K's frame certificate
(``presentations.certify_frame``); a K that is not its frame plus its
corners is refused.  Each subgroup keeps its frame's certificate, and
per shape only the corners are rewritten and de-duplicated.

Rewriting a kernel word walks the parity bit letter by letter.  A walk
started at coset 1 rewrites the tau_1-conjugate of the word without
building it; the derived relators, the witness row for the conjugated
long relator among them, are read that way, and a corner's as a power.
The derived presentation is simplified only by freely reducing and
de-duplicating the rewritten relators; nothing more aggressive, so the
correspondence with the ambient group stays auditable.
"""

from __future__ import annotations

from math import prod

from .groups import FiniteHom
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
    letters.  ``witness`` is the lemma's witness for the connector product,
    each row with K's relator it rewrites and its coset: the long relator
    x_gamma...x_1*e from cosets 0 and 1, then x_j*x_j from coset 0 for
    each interior point x_j, each row the head itself; ``sums`` is the
    rows' exponent sums added, the last gamma subtracted, without zeros.
    ``rows`` are the heads of each coset, each kept if no earlier head has
    its letters, and ``letters`` those of coset 0's rows, then of all,
    with the empty word's; ``witnessed`` says each witness row is a row,
    ``reversing`` that a Schreier generator reverses orientation.  K's
    frame certificate holds it (``frames.FrameCertificate.schreier``)."""

    __slots__ = ("subgroup", "heads", "corners", "witness", "sums", "rows", "letters", "witnessed",
                 "reversing")

    def __init__(
        self, subgroup: SchreierSubgroup, heads: tuple[tuple[Word, ...], ...],
        corners: dict[tuple, tuple[Word, Word]], witness: tuple[tuple[Word, Word, int], ...],
        sums: dict[str, int], rows: tuple[tuple[Word, ...], ...], letters: tuple[frozenset, ...],
        witnessed: bool, reversing: bool,
    ) -> None:
        self._assign(subgroup, heads, corners, witness, sums, rows, letters, witnessed, reversing)


def reidemeister_schreier(p: Presentation, theta: FiniteHom) -> SchreierSubgroup:
    """Presentation of ker(theta) over the coset representatives {1, tau_1},
    with its torsion words.

    Raises ``ValueError``, naming what fails, unless theta is K's parity
    map: ``p`` carries a signature with a single period cycle, has a
    reflection and at least one interior point, each an involution, and
    theta has image of order 2, moves every reflection and interior point
    (so 1 and tau_1 represent the two cosets) and sends the connector to
    the parity the long relator forces.  ``p`` must be its frame (gamma,
    r) (``presentations.disc_quotient_frame``) plus its r corners: its
    generators and its relators but the last r are the frame's, or a
    ``ValueError`` names each that is not.  Generators come in canonical
    order: delta_j, c_k, the connector pair, delta_jt, c_kt, tau1sq.
    Relators are the rewritten conjugates u * R * u^-1 of the base
    relators for u = 1, then u = tau_1, each read as the walk of R from
    coset u; free reduction commutes with the walk, so no conjugate is
    built.  Torsion words: each corner tau_k tau_(k+1) rewritten from
    coset 0, of its full order n_k; each interior involution is moved, so
    it leaves no period.  K and theta are accepted by comparisons with the
    frame, or else checked item by item (``_checked_frame``).  All else
    comes from the frame's ``SchreierFrame`` but the r corner rewrites,
    de-duplicated against its ``rows``, and the subgroup keeps the frame.
    """
    frame = _checked_frame(p, theta)
    schreier = frame.schreier
    sub, corners, (first, second) = schreier.subgroup, schreier.corners, schreier.rows
    tail = p.relators[len(frame.presentation.relators):]
    relators, added = list(first), set()
    for u, seen in enumerate(schreier.letters):
        if u:
            relators += (second if added.isdisjoint(seen)
                         else [w for w in second if w.letters not in added])
        for rel in tail:
            rewritten = _rewrite_corner(sub, corners, rel, u)
            if rewritten.letters not in seen and rewritten.letters not in added:
                added.add(rewritten.letters)
                relators.append(rewritten)
    torsion = zip((w for w, _ in corners.values()), p.signature.period_cycles[0])
    presentation = Presentation(sub.presentation.generators, relators, torsion)
    return SchreierSubgroup(p, sub.generators, presentation, sub.pair_names, sub.parity, frame)


def accepted_frame(p: Presentation, theta: FiniteHom) -> FrameCertificate | None:
    """K's frame certificate if K is the frame plus r relators and theta
    the frame's parity map, by comparisons a canonical K and theta cut
    short, gamma and r read off K's signature; else None.  Theta then
    kills the frame's relators and each corner unit tau_k*tau_(k+1): the
    frame's ``SchreierFrame`` rewrote them."""
    sig = p.signature
    if sig is not None and len(sig.period_cycles) == 1 and sig.proper_periods:
        r = len(sig.period_cycles[0])
        frame, head = certify_frame(len(sig.proper_periods), r), len(p.relators) - r
        if (p.generators == frame.presentation.generators
                and p.relators[:head] == frame.presentation.relators
                and theta.target.order == 2
                and theta.images == tuple(frame.schreier.subgroup.parity.items())):
            return frame
    return None


def _checked_frame(p: Presentation, theta: FiniteHom) -> FrameCertificate:
    """K's frame certificate, as ``accepted_frame`` accepts it or after each check."""
    if frame := accepted_frame(p, theta):
        return frame
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
    higher = [x for x in elliptics if x not in p.involution_names()]
    if higher:
        raise ValueError(f"every interior point must be an involution, unlike {', '.join(higher)}")
    index = theta.image_order()
    if index != 2:
        raise ValueError(f"theta has index {index}, expected 2")
    one = theta.target.identity
    parity = {g: int(theta.image_of(g) != one) for g in p.generator_names()}
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
    if problems:
        raise ValueError(f"K is not its frame ({len(elliptics)}, {len(cycle)}) plus its"
                         f" corners: {'; '.join(problems)}")
    wrong = [g for g, bit in frame.schreier.subgroup.parity.items() if parity[g] != bit]
    if wrong:
        raise ValueError(f"theta must send {', '.join(wrong)} to the parity the long relator"
                         " forces")
    return frame


def _rewrite_corner(frame: SchreierSubgroup, corners: dict, rel: Word, u: int) -> Word:
    """``frame.rewrite(rel, u)``, read as w^m when ``rel`` is the m-th power
    of a corner tau_k*tau_(k+1) whose rewrite w from coset u (``corners``)
    is cyclically reduced: rewriting is a homomorphism on kernel words, and
    w^m is then freely reduced."""
    unit, m = rel.letters[:2], len(rel.letters) // 2
    w = corners[unit][u].letters if unit in corners and rel.letters == unit * m else ()
    return corners[unit][u] ** m if w and w[0] != (w[-1][0], -w[-1][1]) else frame.rewrite(rel, u)


def schreier_frame(
    generators: tuple[tuple[str, GeneratorKind], ...], prefix: tuple[Word, ...],
    parity: dict[str, int],
) -> SchreierFrame:
    """The ``SchreierFrame`` of K's generators with their kinds, K's
    relators but the corners (``prefix``) and theta's bit on each
    generator; it reads only its arguments.  A witness row whose relator
    ``prefix`` lacks is rewritten here."""
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

    index = {rel: i for i, rel in enumerate(prefix)}
    words = [(1, Word((*((x, 1) for x in reversed(elliptics)), (e, 1))), u)
             for e in connectors for u in (0, 1)]
    words += [(-1, Word.gen(x, 2), 0) for x in elliptics]
    witness, sums = [], {}
    for sign, word, u in words:
        i = index.get(word)
        row, word = (subgroup.rewrite(word, u), word) if i is None else (heads[u][i], prefix[i])
        witness.append((row, word, u))
        for g, x in row.exponent_sums().items():
            sums[g] = sums.get(g, 0) + sign * x
    seen, rows, letters = {()}, [], []
    for head in heads:
        rows.append(tuple(w for w in head if w.letters not in seen and not seen.add(w.letters)))
        letters.append(frozenset(seen))
    return SchreierFrame(subgroup, heads, corners, tuple(witness),
                         {g: x for g, x in sums.items() if x}, tuple(rows), tuple(letters),
                         all(row.letters in seen for row, _, _ in witness),
                         any(kind.character == -1 for _, kind in subgroup.presentation.generators))
