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

``verify_derived_relators`` certifies that words over derived subgroup
generators are trivial in the ambient group by bounded rewriting: the
connector is replaced by its closed form x_1^-1...x_gamma^-1 (read off the
long relator), the result is reduced freely and modulo the involutions,
and looked up by its least rotation among the remaining relators and
their inverses.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .words import (
    Word,
    cyclic_reduce,
    least_rotation,
    substitute,
)


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
        return frozenset(g for g, kind in self.generators if kind.is_involution)

    def generators_of_kind(self, kind: str) -> tuple[str, ...]:
        return tuple(g for g, k in self.generators if k.kind == kind)


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
    failures = []
    for rel in p.relators:
        value = hom.evaluate(rel)
        if not value.is_identity():
            failures.append((rel, value))
    return tuple(failures)


# ---------------------------------------------------------------------------
# Derived-relator certification by bounded rewriting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelatorCertificate:
    source: Word
    status: str  # "trivial" | "matches-relator" | "unresolved"
    matched: Word | None = None

    @property
    def certified(self) -> bool:
        return self.status != "unresolved"


def _connector_elimination(p: Presentation) -> dict[str, Word]:
    """The connector solved from the long relator x_gamma...x_2 x_1 e of
    the disc-quotient group (a Tietze elimination): e = x_1^-1...x_gamma^-1."""
    solved = Word(tuple((x, -1) for x in p.generators_of_kind("elliptic")))
    return {e: solved for e in p.generators_of_kind("connector")}


def verify_derived_relators(
    p: Presentation, words: Iterable[Word], substitution: dict[str, Word]
) -> tuple[RelatorCertificate, ...]:
    """Certify that each of ``words`` (over derived-generator names, with
    ``substitution`` expressing those names in the ambient generators) is
    trivial in the group presented by ``p``.

    The bounded procedure: substitute, replace the connector by its
    closed form x_1^-1...x_gamma^-1, reduce cyclically, freely and modulo
    the involution relators, then accept an empty word or an exact cyclic
    match with one of the remaining relators (or an inverse).  Anything
    else is reported unresolved, never silently accepted.  The relators of
    ``p`` are normalised once for the whole batch, and only when some word
    is not trivial, and indexed by the least rotation of each normal form
    and of the cyclic reduction of its inverse, first relator first, so
    each word costs one lookup and is matched with the first relator that
    a scan in relator order would find.
    """
    involutions = p.involution_names()
    elimination = _connector_elimination(p)

    def normalise(w: Word) -> Word:
        return cyclic_reduce(substitute(w, elimination), involutions)

    words = tuple(words)
    normals = [normalise(substitute(word, substitution)) for word in words]
    by_rotation: dict[tuple[tuple[str, int], ...], Word] = {}
    if any(normal.letters for normal in normals):
        for rel in map(normalise, p.relators):
            if rel.letters:
                by_rotation.setdefault(least_rotation(rel), rel)
                inverse = cyclic_reduce(rel.inverse(), involutions)
                by_rotation.setdefault(least_rotation(inverse), rel)

    def certify(word: Word, normal: Word) -> RelatorCertificate:
        if not normal.letters:
            return RelatorCertificate(word, "trivial")
        rel = by_rotation.get(least_rotation(normal))
        if rel is not None:
            return RelatorCertificate(word, "matches-relator", rel)
        return RelatorCertificate(word, "unresolved")

    return tuple(map(certify, words, normals))
