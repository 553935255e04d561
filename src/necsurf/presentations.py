"""Finite presentations with geometric generator kinds.

Two canonical families are built here:

* the disc-quotient group on generators x_1..x_gamma (interior elliptic
  involutions), a connector e, and boundary reflections tau_1..tau_{r+1},
  with relators

      x_i^2,  tau_j^2,  e^-1 tau_{r+1} e tau_1^-1,  x_gamma...x_2 x_1 e,
      (tau_1 tau_2)^{n_1}, ..., (tau_r tau_{r+1})^{n_r};

* the crosscap group of signature (gamma; -; [n_1..n_r]) on glide
  generators d_1..d_gamma and elliptic generators x_1..x_r, with relators
  x_i^{n_i} and x_1...x_r d_1^2...d_gamma^2.

This module alone spells out these generator names; everyone else takes
them by kind (``generators_of_kind``).  ``connector_closed_form`` solves
the long relator for the connector, e = x_1^-1...x_gamma^-1, once.

``verify_derived_relators`` certifies that words over derived subgroup
generators are trivial in the ambient group by bounded rewriting, each
by one comparison: with the one relator it is named to come from, read
from the named rotation, or with the empty word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .groups import FiniteHom
from .signatures import (
    CONNECTOR,
    GLIDE,
    REFLECTION,
    GeneratorKind,
    NECSignature,
    elliptic,
)
from .words import Word, cyclic_reduce_letters, substitute_letters


class UnsupportedSignatureError(ValueError):
    """The signature does not belong to a supported presentation family."""


@dataclass(frozen=True)
class Presentation:
    """Named generators with geometric kinds, plus relator words.

    ``torsion_words`` designates the words generating the maximal finite
    cyclic subgroups up to conjugacy, with their orders; surface-kernel
    checks test exactly these.  ``signature`` carries the NEC signature
    the presentation was built from, when one is known.
    """

    generators: tuple[tuple[str, GeneratorKind], ...]
    relators: tuple[Word, ...]
    torsion_words: tuple[tuple[Word, int], ...] = ()
    signature: NECSignature | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relators", tuple(self.relators))
        object.__setattr__(
            self, "torsion_words", tuple((w, n) for w, n in self.torsion_words)
        )
        names = [g for g, _ in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")

    def generator_names(self) -> tuple[str, ...]:
        return tuple(g for g, _ in self.generators)

    def involution_names(self) -> frozenset[str]:
        return self._involutions

    def generators_of_kind(self, kind: str) -> tuple[str, ...]:
        return self._names_by_kind.get(kind, ())

    # Computed once per presentation: the fields are frozen, and
    # cached_property writes the instance __dict__, which the dataclass
    # comparison and hash ignore.
    @cached_property
    def _involutions(self) -> frozenset[str]:
        return frozenset(g for g, kind in self.generators if kind.is_involution)

    @cached_property
    def _names_by_kind(self) -> dict[str, tuple[str, ...]]:
        names: dict[str, list[str]] = {}
        for g, k in self.generators:
            names.setdefault(k.kind, []).append(g)
        return {kind: tuple(gs) for kind, gs in names.items()}

    @cached_property
    def _connector_closed_form(self) -> dict[str, Word]:
        solved = Word(tuple((x, -1) for x in self.generators_of_kind("elliptic")))
        return {e: solved for e in self.generators_of_kind("connector")}


def orientation_character(p: Presentation) -> dict[str, int]:
    """The generator -> {+1, -1} map induced by the declared kinds."""
    return {g: kind.character for g, kind in p.generators}


def canonical_presentation(sig: NECSignature) -> Presentation:
    """Canonical presentation for the two supported signature families."""
    if (
        sig.orientable
        and sig.genus == 0
        and len(sig.period_cycles) == 1
        and all(m == 2 for m in sig.proper_periods)
    ):
        return _disc_quotient_presentation(sig)
    if not sig.orientable and not sig.period_cycles:
        return _crosscap_presentation(sig)
    raise UnsupportedSignatureError(
        f"no canonical presentation implemented for {sig}"
    )


def _disc_quotient_presentation(sig: NECSignature) -> Presentation:
    gamma = len(sig.proper_periods)
    cycle = sig.period_cycles[0]
    r = len(cycle)
    xs = [f"x{i}" for i in range(1, gamma + 1)]
    taus = [f"tau{j}" for j in range(1, r + 2)]
    generators = (
        [(x, elliptic(2)) for x in xs]
        + [("e", CONNECTOR)]
        + [(t, REFLECTION) for t in taus]
    )
    relators: list[Word] = []
    relators += [Word.gen(x, 2) for x in xs]
    relators += [Word.gen(t, 2) for t in taus]
    relators.append(Word((("e", -1), (taus[-1], 1), ("e", 1), (taus[0], -1))))
    relators.append(Word((*((x, 1) for x in reversed(xs)), ("e", 1))))
    for k, n in enumerate(cycle):
        relators.append(Word(((taus[k], 1), (taus[k + 1], 1)) * n))
    return Presentation(tuple(generators), tuple(relators), signature=sig)


def _crosscap_presentation(sig: NECSignature) -> Presentation:
    gamma = sig.genus
    periods = sig.proper_periods
    ds = [f"d{j}" for j in range(1, gamma + 1)]
    xs = [f"x{i}" for i in range(1, len(periods) + 1)]
    generators = [(d, GLIDE) for d in ds] + [
        (x, elliptic(n)) for x, n in zip(xs, periods)
    ]
    relators = [Word.gen(x, n) for x, n in zip(xs, periods)]
    # x1*...*xr * d1^2*...*d_gamma^2
    relators.append(
        Word(tuple((x, 1) for x in xs)) * Word(tuple((d, 1) for d in ds for _ in range(2)))
    )
    torsion = tuple((Word.gen(x), n) for x, n in zip(xs, periods))
    return Presentation(tuple(generators), tuple(relators), torsion, sig)


# ---------------------------------------------------------------------------
# Homomorphism checking
# ---------------------------------------------------------------------------

def check_homomorphism(
    p: Presentation, hom: FiniteHom
) -> tuple[tuple[Word, object], ...]:
    """Evaluate every relator; images defining a homomorphism send all of
    them to the identity.  Returns the failures, each offending relator
    with the element it evaluates to, so an empty tuple means valid."""
    identity = hom.target.identity
    return tuple(
        (rel, value) for rel in p.relators if (value := hom.evaluate(rel)) != identity
    )


# ---------------------------------------------------------------------------
# Derived-relator certification by bounded rewriting
# ---------------------------------------------------------------------------

def connector_closed_form(p: Presentation) -> dict[str, Word]:
    """The connector solved from the long relator x_gamma...x_2 x_1 e of
    the disc-quotient group (a Tietze elimination): e = x_1^-1...x_gamma^-1.
    Every image of e, theta's and Theta's, is the normal form of this word,
    solved once per presentation; callers read the dict, never change it."""
    return p._connector_closed_form


def verify_derived_relators(
    p: Presentation, words: Iterable[Word], sources: Iterable[tuple[int, int] | None],
    substitution: dict[str, Word],
) -> tuple[str, ...]:
    """Certify that each of ``words`` (over derived-generator names, with
    ``substitution`` expressing those names in the ambient generators) is
    trivial in the group presented by ``p``, by the one relator it is
    named to come from: ``sources`` gives, word by word, that relator's
    index in ``p.relators`` and the rotation at which the word spells it,
    or None for a word named trivial.  Returns one status per word:
    "trivial", "matches-relator" or "unresolved".

    Each word's images are spliced into one letter tuple and reduced once,
    cyclically, freely and modulo the involutions.  A word with a source
    must equal that relator, reduced the same way and read from its named
    rotation, letter for letter: a rotation of a defining relator is
    trivial, so nothing is eliminated.  Only a word named trivial gets the
    connector's closed form x_1^-1...x_gamma^-1 spliced in, and must
    reduce to the empty word.  Anything else is unresolved.  No other
    relator of ``p`` is read.
    """
    involutions = p.involution_names()
    elimination = connector_closed_form(p)

    def status(word: Word, source: tuple[int, int] | None) -> str:
        letters = substitute_letters(word.letters, substitution)
        if source is None:
            left = cyclic_reduce_letters(substitute_letters(letters, elimination), involutions)
            return "unresolved" if left else "trivial"
        index, k = source
        rel = cyclic_reduce_letters(p.relators[index].letters, involutions)
        spelled = cyclic_reduce_letters(letters, involutions) == rel[k:] + rel[:k]
        return "matches-relator" if spelled else "unresolved"

    return tuple(status(w, source) for w, source in zip(words, sources, strict=True))
