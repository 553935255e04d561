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

This module alone spells out these generator names and the frame's
generator order x_1..x_gamma, e, tau_1..tau_(r+1); everyone else takes
them by kind (``generators_of_kind``), the connector of a K of the frame
from ``connector_name``, or the crosscap group's from ``crosscap_names``
without building the group.  The disc-quotient group's generators and
every relator but its corners are built once per frame (gamma, r)
(``disc_quotient_frame``), and each group of the frame shares them
(``_with_corners``).  A presentation holds its four fields and nothing
else.

Everything certified on a frame for every K of it is one immutable
record, ``frames.FrameCertificate``, built whole by ``certify_frame(gamma,
r)``, the frame's one memo, so evicting it evicts its certificates.  Its
builder sits above this module, and the memo reaches it at call time.
An object built from the frame holds its record; none finds it by
identity.

``verify_derived_relators`` certifies that words over derived subgroup
generators are trivial in the ambient group by bounded rewriting, each
by one comparison: with the one relator it is named to come from, read
from the named rotation, or, with the connector's closed form that its
caller passes spliced in, with the empty word.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable
from functools import partial, update_wrapper

from .signatures import (
    CONNECTOR,
    GLIDE,
    REFLECTION,
    GeneratorKind,
    NECSignature,
    elliptic,
)
from .words import Record, Word, cyclic_reduce_letters, substitute_letters

# the budget of each memo of the shape stage (``LetterMemo``), in letters of K
MEMO_LETTERS = 2**16


class LetterMemo:
    """A least-recently-used memo of ``build`` holding at most
    ``MEMO_LETTERS`` letters of K (``weight(*key)`` each) or its newest
    entry alone, with ``lru_cache``'s ``cache_info`` and ``cache_clear``."""

    CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")

    def __init__(self, build: Callable, weight: Callable[..., int]) -> None:
        update_wrapper(self, build)
        self.weight = weight
        self.cache_clear()

    def __call__(self, *key):
        entry = self.entries.pop(key, None)
        if entry is None:  # built outside a handler: what it raises has no context
            self.misses += 1
            entry = self.__wrapped__(*key), self.weight(*key)
            self.held += entry[1]
            while self.held > MEMO_LETTERS and self.entries:
                self.held -= self.entries.pop(next(iter(self.entries)))[1]
        else:
            self.hits += 1
        self.entries[key] = entry
        return entry[0]

    def cache_info(self) -> LetterMemo.CacheInfo:
        return self.CacheInfo(self.hits, self.misses, MEMO_LETTERS, len(self.entries))

    def cache_clear(self) -> None:
        self.entries, self.held, self.hits, self.misses = {}, 0, 0, 0


class UnsupportedSignatureError(ValueError):
    """The signature does not belong to a supported presentation family."""


class Presentation(Record):
    """Named generators with geometric kinds, plus relator words.

    ``torsion_words`` designates the words generating the maximal finite
    cyclic subgroups up to conjugacy, with their orders; surface-kernel
    checks test exactly these.  ``signature`` carries the NEC signature
    the presentation was built from, when one is known.
    """

    __slots__ = ("generators", "relators", "torsion_words", "signature")

    def __init__(
        self, generators: Iterable[tuple[str, GeneratorKind]], relators: Iterable[Word],
        torsion_words: Iterable[tuple[Word, int]] = (), signature: NECSignature | None = None,
    ) -> None:
        generators = tuple(generators)
        if len(dict(generators)) != len(generators):
            raise ValueError("duplicate generator names")
        self._assign(generators, tuple(relators), tuple((w, n) for w, n in torsion_words),
                         signature)

    def generator_names(self) -> tuple[str, ...]:
        return next(zip(*self.generators), ())

    def involution_names(self) -> frozenset[str]:
        return frozenset(g for g, kind in self.generators if kind.is_involution)

    def generators_of_kind(self, kind: str) -> tuple[str, ...]:
        return tuple(g for g, k in self.generators if k.kind == kind)


def canonical_presentation(sig: NECSignature) -> Presentation:
    """Canonical presentation for the two supported signature families."""
    if (
        sig.orientable
        and sig.genus == 0
        and len(sig.period_cycles) == 1
        and set(sig.proper_periods) <= {2}
    ):
        return _disc_quotient_presentation(sig)
    if not sig.orientable and not sig.period_cycles:
        return _crosscap_presentation(sig)
    raise UnsupportedSignatureError(
        f"no canonical presentation implemented for {sig}"
    )


def _disc_quotient_presentation(sig: NECSignature) -> Presentation:
    # with no interior point, which no derivation takes, no frame is certified
    gamma, cycle = len(sig.proper_periods), sig.period_cycles[0]
    frame = (certify_frame(gamma, len(cycle)).presentation if gamma
             else disc_quotient_frame(0, len(cycle)))
    return _with_corners(frame, cycle, sig)


@partial(LetterMemo, weight=lambda gamma, r: 3 * gamma + 2 * r + 7)
def certify_frame(gamma: int, r: int) -> frames.FrameCertificate:
    """The frame (gamma, r) and all that is certified on it for every K of
    the frame, built whole (``frames.certified_frame``), as none of it
    reads the periods: the frame's one memo."""
    from . import frames  # the record's builder sits above this module

    return frames.certified_frame(disc_quotient_frame(gamma, r))


def disc_quotient_frame(gamma: int, r: int) -> Presentation:
    """The disc-quotient group with gamma interior points and r corners
    without its corner relators, on the generators x_1..x_gamma, e,
    tau_1..tau_(r+1) in this order, which ``_with_corners`` shares with
    each K of the frame."""
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
    return Presentation(tuple(generators), tuple(relators))


def _with_corners(
    frame: Presentation, cycle: tuple[int, ...], sig: NECSignature | None = None,
) -> Presentation:
    """K of the frame with its r corner orders ``cycle`` (with each n_k = 1,
    the frame with its corner units), sharing the frame's generators,
    which were checked when it was built; its reflections are its last
    r + 1."""
    taus = frame.generators[len(frame.generators) - len(cycle) - 1:]
    corners = (Word(((a, 1), (b, 1))) ** n for (a, _), (b, _), n in zip(taus, taus[1:], cycle))
    p = Presentation.__new__(Presentation)
    p._assign(frame.generators, frame.relators + tuple(corners), (), sig)
    return p


def connector_name(K: Presentation) -> str:
    """The connector of a K of the frame (gamma, r): its generator after
    the gamma interior points, gamma read off K's signature."""
    return K.generators[len(K.signature.proper_periods)][0]


def crosscap_names(gamma: int, r: int) -> tuple[list[str], list[str]]:
    """The crosscap group's glide names d_1..d_gamma and elliptic names
    x_1..x_r, in generator order."""
    return [f"d{j}" for j in range(1, gamma + 1)], [f"x{i}" for i in range(1, r + 1)]


def _crosscap_presentation(sig: NECSignature) -> Presentation:
    periods = sig.proper_periods
    ds, xs = crosscap_names(sig.genus, len(periods))
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
    p: Presentation, images: list, target, walk: Iterable,
) -> tuple[tuple[Word, object], ...]:
    """Evaluate every relator; images defining a homomorphism send all of
    them to the identity.  ``images`` are in ``target`` in p's generator
    order, and ``walk`` is p's relators as (index, exponent) letters, so
    that no name is read.  Returns the failures, each offending relator
    with the element it evaluates to, so an empty tuple means valid."""
    identity = target.identity
    values = (target.normal_form(images, letters) for letters in walk)
    return tuple((rel, value) for rel, value in zip(p.relators, values, strict=True)
                 if value != identity)


# ---------------------------------------------------------------------------
# Derived-relator certification by bounded rewriting
# ---------------------------------------------------------------------------

def verify_derived_relators(
    p: Presentation, words: Iterable[Word], sources: Iterable[tuple[int, int] | None],
    substitution: dict[str, Word], closed_form: dict[str, Word],
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
    trivial, so nothing is eliminated.  Only a word named trivial gets
    ``closed_form``, the connector's closed form x_1^-1...x_gamma^-1 by
    name, spliced in, and must reduce to the empty word.  Anything else is unresolved.  No other
    relator of ``p`` is read, and nothing is kept.
    """
    relators, involutions = p.relators, p.involution_names()

    def status(letters: tuple, source: tuple[int, int] | None) -> str:
        if source is None:
            spliced = substitute_letters(substitute_letters(letters, substitution), closed_form)
            return "unresolved" if cyclic_reduce_letters(spliced, involutions) else "trivial"
        index, k = source
        rel = cyclic_reduce_letters(relators[index].letters, involutions)
        spelled = cyclic_reduce_letters(substitute_letters(letters, substitution), involutions)
        return "matches-relator" if spelled == rel[k:] + rel[:k] else "unresolved"

    return tuple(status(word.letters, source) for word, source in zip(words, sources, strict=True))
