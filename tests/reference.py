"""Reference constructions kept as test oracles for the closed forms in
``necsurf.pipeline``."""

from necsurf import CyclicGroup, DihedralGroup, FiniteHom
from necsurf.words import Word


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
