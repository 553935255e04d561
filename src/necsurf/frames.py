"""The frame certificate: what is certified once per frame (gamma, r).

The chain K -> theta -> Delta-hat -> eta -> Theta reads the periods only
through K's r corners, so every other fact is certified on K's frame
(``presentations.disc_quotient_frame``) for every K of it, built whole
by ``certified_frame`` as one immutable ``FrameCertificate``, which
``presentations.certify_frame(gamma, r)`` memoises.  Under a symbolic
Theta whose rotations are linear forms in rho's images (``_Forms``), a
relator that folds to the identity holds at every rho.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .cosets import SchreierFrame, schreier_frame
from .presentations import Presentation, _with_corners, verify_derived_relators
from .signatures import GeneratorKind
from .words import Record, Word, cyclic_reduce_letters, substitute_letters


class PipelineAssertionError(RuntimeError):
    """An internal step failed where the construction guarantees success:
    either a bug or an unsupported edge case, never a silent downgrade."""


class FrameCertificate(Record):
    """What is certified on the frame (gamma, r) for every K of it, built
    whole by ``certified_frame``: ``presentation``, the frame;
    ``schreier``, the ``cosets.SchreierFrame`` of K's parity map;
    ``rows``, ``units`` and ``statuses``, when theta kills the connector
    (even gamma; else empty and None), the derived kernel's classical
    relators (a corner unit each, then the rows after the corners), the
    frame with its corner units that names their sources, and their
    statuses; ``inverted``, the Schreier generators whose
    tau1-identities the lemma certified; ``folds``, K's relators Theta
    does not send to 1 for every rho; ``connector``, e's closed form
    x_1^-1...x_gamma^-1, the one that is kept, and ``walk``, those
    relators, as (index, exponent) letters over Theta's
    images in K's generator order; ``eta``, eta's images as forms, in
    generator order (``_eta_images``); ``parities``, each image's parity,
    1 for a glide.  So a rho costs only integer arithmetic."""

    __slots__ = ("presentation", "schreier", "rows", "units", "statuses", "inverted", "folds",
                 "connector", "walk", "eta", "parities")

    def __init__(
        self, presentation: Presentation, schreier: SchreierFrame, rows: tuple,
        units: Presentation | None, statuses: tuple[str, ...], inverted: tuple[str, ...],
        folds: Presentation, connector: tuple, walk: tuple, eta: tuple, parities: tuple[int, ...],
    ) -> None:
        self._assign(presentation, schreier, rows, units, statuses, inverted, folds, connector,
                     walk, eta, parities)


def parity_bits(
    generators: Iterable[tuple[str, GeneratorKind]], gamma: int,
) -> tuple[tuple[str, int], ...]:
    """K's parity map theta: K -> C_2 as each of K's ``generators`` with
    its bit, in order: 1 on each interior point and each reflection, and
    on the connector gamma mod 2, the parity of its closed form
    x_1^-1...x_gamma^-1, which the long relator x_gamma...x_1*e forces."""
    return tuple((g, gamma % 2 if kind.kind == "connector" else 1) for g, kind in generators)


def certified_frame(frame: Presentation) -> FrameCertificate:
    """Every certificate of the frame ``frame``, derived from it alone,
    under its parity map (``parity_bits``).  e's closed form is built once,
    kept as (index, exponent) letters, and spelled by name only for
    ``verify_derived_relators``.  A failed check raises
    ``PipelineAssertionError`` naming it; a classical relator's status is
    checked by each shape, which names it with its period."""
    xs, (e,) = frame.generators_of_kind("elliptic"), frame.generators_of_kind("connector")
    solved = Word(tuple((x, -1) for x in xs))
    parity = dict(parity_bits(frame.generators, len(xs)))
    schreier = schreier_frame(frame.generators, frame.relators, parity)
    rows, units, statuses = (), None, ()
    if not parity[e]:
        rows, units = _printed_relator_words(frame, schreier)
        _, words, sources = zip(*rows)
        statuses = verify_derived_relators(
            units, words, sources, {g.name: g.word for g in schreier.subgroup.generators},
            {e: solved})
    index = {g: i for i, g in enumerate(frame.generator_names())}
    connector = _indexed(solved, index)
    theta = _symbolic_theta(frame, connector)
    folds, kinds = _theta_residual(frame, theta), schreier.subgroup.presentation.generators
    return FrameCertificate(frame, schreier, rows, units, statuses, _inverted(frame, schreier),
                            folds, connector, tuple(_indexed(w, index) for w in folds.relators),
                            _eta_images(frame, schreier, folds, theta),
                            tuple(int(kind.character == -1) for _, kind in kinds))


def _indexed(word: Word, index: dict) -> tuple[tuple[int, int], ...]:
    """``word``'s letters with each generator replaced by its ``index``."""
    return tuple((index[g], e) for g, e in word.letters)


def _printed_relator_words(frame: Presentation, schreier: SchreierFrame) -> tuple:
    """The derived kernel's classical relators when theta kills the
    connector: each row's label, word over the generators named by role,
    and source in the frame with its corner units (``_with_corners`` at
    n_k = 1, returned too), a relator's index and the rotation at which
    the word, spelled in K, reduces to it.  c1 spells tau1*tau2 and
    (c_k^-1*c_(k+1)) tau_(k+1)*tau_(k+2) at rotation 0; e1*e2^-1[*c_r] the
    connector relator e^-1*tau_(r+1)*e*tau1 from its third letter
    (rotation 2); the delta-alternations are trivial (None)."""
    names: dict[str, list[str]] = {}
    for g in schreier.subgroup.generators:
        names.setdefault(g.role, []).append(g.name)
    deltas, cs = names.get("glide", []), names.get("corner rotation", [])
    (e1, e2), corner = names["connector"], len(frame.relators)
    rows = [(c, Word(((c, 1),)), (corner, 0)) for c in cs[:1]]
    rows += [(f"({a}^-1*{b})", Word(((a, -1), (b, 1))), (corner + k, 0))
             for k, (a, b) in enumerate(zip(cs, cs[1:]), start=1)]
    closing = Word(((e1, 1), (e2, -1), *((c, 1) for c in cs[-1:])))
    rows.append((str(closing), closing, (corner - 2, 2)))
    # delta1^-1*delta2*delta3^-1*... and its sign flip, then e1^-1 or e2^-1
    for i, (sign, e) in enumerate(((-1, e1), (1, e2)), start=1):
        letters = [(d, sign * (-1) ** j) for j, d in enumerate(deltas)]
        rows.append((f"delta-alternation-{i}", Word((*letters, (e, -1))), None))
    return tuple(rows), _with_corners(frame, (1,) * len(cs))


def _inverted(frame: Presentation, schreier: SchreierFrame) -> tuple[str, ...]:
    """The Schreier generators, in order, each certified to be inverted by
    conjugation by tau1: tau1*g*tau1*g reduces to the empty word in K,
    spelled by ``substitute_letters`` and reduced by
    ``cyclic_reduce_letters``, but for the connector pair (a, b), which
    tau1 swaps, tau1*a*tau1*b^-1."""
    (e,) = frame.generators_of_kind("connector")
    a, b = (schreier.subgroup.pair_names[u, e] for u in (0, 1))
    tau1, involutions = frame.generators_of_kind("reflection")[0], frame.involution_names()
    last_letter = {a: (b, -1), b: (a, -1)}
    substitution = {gen.name: gen.word for gen in schreier.subgroup.generators}
    for name in substitution:
        identity = ((tau1, 1), (name, 1), (tau1, 1), last_letter.get(name, (name, 1)))
        if cyclic_reduce_letters(substitute_letters(identity, substitution), involutions):
            raise PipelineAssertionError(
                f"conjugation identity for {name} could not be certified:"
                f" {Word(identity)} does not reduce to 1 in K"
            )
    return tuple(substitution)


class _Forms:
    """D_2n with symbolic rotations, each an integer linear form in rho's
    images: a dict from variable to nonzero coefficient, where variable
    j >= 1 is d_j and variable -k is x_1 + ... + x_k, the rotation of
    Theta(tau_(k+1)), so every generator's image but the connector's has
    one term.  An element is (flip, form), as (eps, k) is in
    ``groups.DihedralGroup``, which ``reflection`` and ``normal_form``
    mirror."""

    @staticmethod
    def reflection(form) -> tuple[int, dict]:
        return 1, form or {}

    @staticmethod
    def normal_form(table: dict, letters: Iterable[tuple[str, int]]) -> tuple[int, dict]:
        return next(_Forms.folds(table, (letters,)))

    @staticmethod
    def folds(table: dict, words: Iterable) -> Iterator[tuple[int, dict]]:
        """The normal form of each word's letters, by the product rule with
        a running sign: the rotation is sign*acc; a reflection t*s^f sends
        it to f - sign*acc, so acc gains -sign*f and the sign turns; a
        rotation s^f adds e*sign*f.  Each letter costs its image's terms,
        and nothing is negated but at the end."""
        for letters in words:
            flip, sign, acc = 0, 1, {}
            for g, e in letters:
                img_flip, img = table[g]
                step = -sign if img_flip else sign * e
                for v, c in img.items():
                    if c := acc.get(v, 0) + step * c:
                        acc[v] = c
                    else:
                        del acc[v]
                if img_flip:
                    flip, sign = flip ^ 1, -sign
            yield flip, acc if sign == 1 else {v: -c for v, c in acc.items()}


def _theta_images(connector: tuple, target, glides: Iterable, sums: Iterable) -> list:
    """Theta on K's generators in closed form, in ``target``, in K's
    generator order: x_j -> t*s^(glides[j]), e -> the normal form of e's
    closed form x_1^-1...x_gamma^-1 (``connector``, as (index, exponent)
    letters), forced by the long relator, tau1 -> t and tau_(k+1) ->
    t*s^(sums[k]).  ``pipeline.extend_to_dihedral`` reads it in D_2n at
    (-1)^j d_j and x_1 + ... + x_k, and ``_symbolic_theta`` in ``_Forms``
    at the variables, so the folds certify the images rho is given."""
    images = list(map(target.reflection, glides))
    images += target.normal_form(images, connector), target.reflection(0)
    images += map(target.reflection, sums)
    return images


def _symbolic_theta(K: Presentation, connector: tuple) -> dict:
    """Theta's images on K's generators in ``_Forms``, by name."""
    gamma, r = len(K.generators_of_kind("elliptic")), len(K.generators_of_kind("reflection")) - 1
    glides = ({j: -1 if j % 2 else 1} for j in range(1, gamma + 1))
    images = _theta_images(connector, _Forms, glides, ({-k: 1} for k in range(1, r + 1)))
    return dict(zip(K.generator_names(), images))


def _theta_residual(frame: Presentation, theta: dict) -> Presentation:
    """The relators of K that Theta does not send to the identity for
    every rho: the relators of the frame (K's relators but the corners)
    whose fold under the symbolic Theta (``theta``) is not the identity,
    in order, as a presentation.  Each reflection is certified to map to
    a reflection, so that each corner unit tau_k*tau_(k+1) maps to a
    rotation, read off the two images."""
    for tau in frame.generators_of_kind("reflection"):
        if not theta[tau][0]:
            raise PipelineAssertionError(f"Theta sends the reflection {tau} to a rotation")
    folds = _Forms.folds(theta, (rel.letters for rel in frame.relators))
    return Presentation(frame.generators,
                        [rel for rel, (flip, form) in zip(frame.relators, folds) if flip or form])


def _eta_images(
    frame: Presentation, schreier: SchreierFrame, residual: Presentation, theta: dict,
) -> tuple:
    """eta's images as forms: eta on each Schreier generator is the
    rotation the symbolic Theta (``theta``) folds its word to, and each
    head (a relator of K rewritten from coset u) and each corner unit's
    rewrite from coset u folds under eta as its source folds under Theta
    (whose ``residual`` holds the sources that do not fold to the
    identity), conjugated by the coset's representative (1 or tau1, which
    negates a rotation).  So each relator of the derived kernel folds to
    the identity, or to +-R or +-n_k*x_k.  Returns, in generator order,
    each image's variable and coefficient (0 and 0 unless it has one
    term); the others, each its index, variables and coefficients; for
    each relator Theta walks, its variables and coefficients and its heads
    from cosets 0 and 1, whose forms are it and its negation; and the
    torsion words as (index, exponent) letters."""
    generators = schreier.subgroup.generators
    eta, singles, others = {}, [], []
    words = (gen.word.letters for gen in generators)
    for i, (gen, (flip, form)) in enumerate(zip(generators, _Forms.folds(theta, words))):
        if flip:
            raise PipelineAssertionError(
                f"eta: Theta sends the kernel generator {gen.name} to a reflection")
        eta[gen.name] = 0, form
        singles.append(next(iter(form.items())) if len(form) == 1 else (0, 0))
        if len(form) > 1:
            others.append((i, tuple(form), tuple(form.values())))
    # each source's fold under Theta; None for the identity
    units = tuple(map(Word, schreier.corners))
    moved = (*residual.relators, *units)
    folds = dict(zip(moved, _Forms.folds(theta, (w.letters for w in moved))))
    sources = (*frame.relators, *units)
    expected = [folds.get(w) for w in sources]
    forms = {}
    for u, head in enumerate(schreier.heads):
        rows = (*head, *(rewrites[u] for rewrites in schreier.corners.values()))
        for i, (row, source, want, (_, form)) in enumerate(zip(
                rows, sources, expected, _Forms.folds(eta, (w.letters for w in rows)))):
            if form or want:
                want_flip, want_form = want or (0, {})
                if u:  # conjugation by tau1 negates the rotation
                    want_form = {v: -c for v, c in want_form.items()}
                if want_flip or form != want_form:
                    raise PipelineAssertionError(f"eta: relator {row} from coset {u} does"
                                                 f" not fold as Theta folds {source}")
                if i < len(head):  # the form from coset 0, then each row
                    forms.setdefault(i, (form, []))[1].append(row)
    index = {gen.name: i for i, gen in enumerate(generators)}
    return (*zip(*singles), tuple(others), tuple(
        (tuple(form), tuple(form.values()), tuple(rows)) for form, rows in forms.values()),
        tuple(_indexed(w, index) for w, _ in schreier.corners.values()))
