"""Reference constructions kept as test oracles for the closed forms in
``necsurf.pipeline`` and ``necsurf.kernels``."""

from necsurf import CyclicGroup, DihedralGroup, FiniteHom, orientation_character
from necsurf.words import Word, reduce_mod_involutions


def naive_theta(K):
    """The parity map with the naive connector image e -> 1 and every
    other generator sent to the non-trivial element of C_2."""
    c2 = CyclicGroup(2)
    return FiniteHom.from_dict(
        K, c2, {name: c2.element(name != "e") for name in K.generator_names()}
    )


def theta_through_eta(derived, eta, name):
    """Theta of the K generator ``name``, rebuilt from eta by rewriting:
    rotation(eta(rewrite(g))) when theta(g) = 1, and
    t * rotation(eta(rewrite(tau1 * g))) otherwise."""
    dihedral = DihedralGroup(eta.hom.target.modulus)
    if derived.theta.image_of(name).is_identity():
        rewritten = derived.subgroup.rewrite(Word.gen(name))
        return dihedral.rotation(eta.hom.evaluate(rewritten).value)
    rewritten = derived.subgroup.rewrite(Word.gen("tau1") * Word.gen(name))
    return dihedral.reflection(0) * dihedral.rotation(eta.hom.evaluate(rewritten).value)


def character_factors_through_image(p, hom):
    """Try to define a consistent orientation character on the image.

    Walk the Cayley graph of the image, pushing the character of each
    generator along its edge and keeping one parent edge per element.  A
    sign conflict proves the character does not factor; the two colliding
    tree paths combine into an explicit orientation-reversing kernel word
    (the witness).
    """
    chars = orientation_character(p)
    images = hom.image_dict()
    identity = hom.target.identity()
    signs = {identity: 1}
    parent: dict = {identity: None}  # element -> (previous element, generator)
    frontier = [identity]

    def path(elem) -> Word:
        letters = []
        while parent[elem] is not None:
            elem, name = parent[elem]
            letters.append((name, 1))
        return Word(tuple(reversed(letters)))

    while frontier:
        new = []
        for elem in frontier:
            for name, _ in p.generators:
                nxt = elem * images[name]
                sign = signs[elem] * chars[name]
                if nxt not in signs:
                    signs[nxt] = sign
                    parent[nxt] = (elem, name)
                    new.append(nxt)
                elif signs[nxt] != sign:
                    conflict = path(elem) * Word.gen(name)
                    witness = conflict * path(nxt).inverse()
                    witness = reduce_mod_involutions(witness, p.involution_names())
                    return False, witness
        frontier = new
    return True, None
