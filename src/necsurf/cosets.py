"""Coset tables for kernels of maps to finite groups, and the
Reidemeister-Schreier subgroup presentation.

Every subgroup handled by this package is the kernel of a homomorphism
onto a finite group, so its coset space is simply the image subgroup:
the table records, per generator, the permutation given by right
translation by the generator's image.  No general coset enumeration is
needed.

The Schreier transversal is grown breadth-first from the identity coset.
Reflection generators are tried before the others, so an index-2 kernel
that kills the reflections gets the classical transversal {1, tau_1}
(the doubled fundamental domain) and the derived generators come out in
their familiar printed shapes.  The derived presentation is simplified
only by dropping freely-trivial Schreier generators and freely reducing
(and de-duplicating) the rewritten relators; nothing more aggressive, so
the correspondence with the ambient group stays auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .groups import FiniteHom
from .presentations import Presentation, word_character
from .signatures import CONNECTOR, GLIDE
from .words import Word, free_reduce


class NotInKernelError(ValueError):
    """A word handed to the rewriting map does not lie in the kernel."""


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
    images = hom.image_dict()
    identity = hom.target.identity()
    cosets = [identity]
    seen = {identity: 0}
    frontier = [identity]
    while frontier:
        new = []
        for elem in frontier:
            for name, _ in hom.domain.generators:
                nxt = elem * images[name]
                if nxt not in seen:
                    seen[nxt] = len(cosets)
                    cosets.append(nxt)
                    new.append(nxt)
        frontier = new
    names = hom.domain.generator_names()
    forward = {g: tuple(seen[c * images[g]] for c in cosets) for g in names}
    backward = {g: tuple(seen[c * images[g].inverse()] for c in cosets) for g in names}
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

    def renamed(self, mapping: dict[str, str], order: list[str] | None = None) -> "SchreierSubgroup":
        """Tietze renaming (and optional reordering) of the Schreier
        generators; words, relators and the rewriting map follow along."""

        def rename_word(w: Word) -> Word:
            return Word(tuple((mapping.get(g, g), e) for g, e in w.letters))

        new_gens = tuple(
            SchreierGenerator(mapping.get(g.name, g.name), g.coset, g.base_generator, g.word)
            for g in self.generators
        )
        if order is not None:
            position = {name: i for i, name in enumerate(order)}
            new_gens = tuple(sorted(new_gens, key=lambda g: position[g.name]))
        kinds = {
            mapping.get(name, name): kind for name, kind in self.presentation.generators
        }
        presentation = Presentation(
            tuple((g.name, kinds[g.name]) for g in new_gens),
            tuple(rename_word(rel) for rel in self.presentation.relators),
            tuple(
                (rename_word(w), n) for w, n in self.presentation.torsion_words
            ),
            self.presentation.signature,
        )
        pair_names = {
            pair: (mapping.get(name, name) if name is not None else None)
            for pair, name in self.pair_names.items()
        }
        return replace(
            self, generators=new_gens, presentation=presentation, pair_names=pair_names
        )


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
