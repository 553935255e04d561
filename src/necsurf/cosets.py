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
subgroup without theta.

Rewriting a kernel word walks the parity bit letter by letter.  A walk
started at coset 1 rewrites the tau_1-conjugate of the word without
building it; the derived relators and the lemma's witness row for the
conjugated long relator are read that way.  The derived presentation is simplified only by freely
reducing and de-duplicating the rewritten relators; nothing more
aggressive, so the correspondence with the ambient group stays
auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import prod

from .groups import FiniteHom
from .presentations import Presentation, orientation_character
from .signatures import CONNECTOR, GLIDE
from .words import Word


class NotInKernelError(ValueError):
    """A word handed to the rewriting map does not lie in the kernel."""


@dataclass(frozen=True)
class SchreierGenerator:
    """One non-trivial Schreier generator rep(c) * g * rep(c g)^-1.  Its
    pair (coset c, generator g) is the key of its name in
    ``SchreierSubgroup.pair_names``."""

    name: str
    word: Word          # freely reduced word in the ambient generators
    role: str


@dataclass(frozen=True)
class SchreierSubgroup:
    """Reidemeister-Schreier data for ker(theta): generators, derived
    presentation (with its torsion words) and the rewriting map into it.
    ``pair_names`` names the Schreier generator of each (coset, generator)
    pair, or None for the trivial pair (0, tau_1); ``parity`` is theta's
    bit on each generator."""

    base: Presentation
    generators: tuple[SchreierGenerator, ...]
    presentation: Presentation
    pair_names: dict[tuple[int, str], str | None]
    parity: dict[str, int]

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
        return Word(tuple(out))


def reidemeister_schreier(p: Presentation, theta: FiniteHom) -> SchreierSubgroup:
    """Presentation of ker(theta) over the coset representatives {1, tau_1},
    with its torsion words.

    Raises ``ValueError``, naming what fails, unless theta is K's parity
    map: ``p`` carries a signature with a single period cycle, has a
    reflection and at least one interior point, each an involution, and
    theta has image of order 2 and moves every reflection and interior
    point (so 1 and tau_1 represent the two cosets).  Generators come in
    canonical order: delta_j, c_k, the connector pair, delta_jt, c_kt,
    tau1sq.  Relators are the rewritten conjugates u * R * u^-1 of the
    base relators for u = 1, then u = tau_1, each read as the walk of R
    from coset u; free reduction commutes with the walk, so no conjugate
    is built.  Torsion words: each corner tau_k tau_(k+1) rewritten from
    coset 0, of its full order n_k; each interior involution is moved, so
    it leaves no period.
    """
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
    tau1 = reflections[0]
    # letters of the representatives 1, tau_1 and of their inverses; only
    # the trivial pair (0, tau_1), tau_1 * tau_1^-1, would cancel, and it
    # is never built, so each generator word is freely reduced as built
    reps, rep_inverses = ((), ((tau1, 1),)), ((), ((tau1, -1),))

    # (coset, base generator, name, role), in canonical order
    pairs = [(1, x, f"delta{j}", "glide") for j, x in enumerate(elliptics, start=1)]
    pairs += [(1, t, f"c{k}", "corner rotation") for k, t in enumerate(reflections[1:], start=1)]
    conjugates = [(0, g, name + "t", role + " (tau1-conjugate)") for _, g, name, role in pairs]
    for e in p.generators_of_kind("connector"):
        letter = "ef"[parity[e]]
        pairs += [(0, e, f"{letter}1", "connector"), (1, e, f"{letter}2", "connector")]
    conjugates.append((1, tau1, "tau1sq", "reflection square (trivial in K)"))

    pair_names: dict[tuple[int, str], str | None] = {(0, tau1): None}
    generators: list[SchreierGenerator] = []
    for coset, g, name, role in pairs + conjugates:
        word = Word(reps[coset] + ((g, 1),) + rep_inverses[coset ^ parity[g]])
        pair_names[(coset, g)] = name
        generators.append(SchreierGenerator(name, word, role))

    chars = orientation_character(p)
    derived = Presentation(
        tuple(
            (gen.name, GLIDE if prod(chars[g] for g, _ in gen.word.letters) == -1
             else CONNECTOR)
            for gen in generators
        ),
        (),
    )
    subgroup = SchreierSubgroup(p, tuple(generators), derived, pair_names, parity)

    relators: list[Word] = []
    seen_relators: set[tuple[tuple[str, int], ...]] = set()
    for u in (0, 1):
        for rel in p.relators:
            rewritten = subgroup.rewrite(rel, u)
            if rewritten.letters and rewritten.letters not in seen_relators:
                seen_relators.add(rewritten.letters)
                relators.append(rewritten)

    corners = zip(reflections, reflections[1:], p.signature.period_cycles[0])
    torsion = tuple((subgroup.rewrite(Word(((a, 1), (b, 1)))), n) for a, b, n in corners)

    return replace(
        subgroup, presentation=Presentation(derived.generators, tuple(relators), torsion)
    )
