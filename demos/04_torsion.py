#!/usr/bin/env python3
"""Combinatorial torsion: twisted complexes, Laplacians, and the scalar
product on the homology determinant line.

The headline law: acting on the spray by u in H_1 multiplies the torsion
value by |det rho(u)|^(-2), and volume-preserving bundles leave it fixed.
"""

import numpy as np

from torsionlab import (
    EULER_ACTION_EXPONENT,
    FlatBundle,
    assemble,
    canonical_spray,
    corpus_get,
    euler_action_on_torsion,
    ft_torsion,
    h1_class_for,
    laplacians,
    t_comb,
)
from torsionlab.corpus import lens_rotation_bundle
from torsionlab.torsion_engine import det_of_class, t_comb_squared_exact

# circle with holonomy [3]: the twisted boundary is rho - 1 = [2]
circ = corpus_get("circle-1cell").complex
bundle = FlatBundle(1, {"e": [[3]]})
spray = canonical_spray(circ)
tcc = assemble(circ, bundle, spray)
print("circle D1 =", tcc.boundary(1), " Laplacians:", {d: m.tolist() for d, m in laplacians(tcc).items()})
print("t_comb =", t_comb(tcc), " (exact square:", t_comb_squared_exact(tcc), ")")
res = ft_torsion(circ, bundle, spray)
print("torsion value (squared-norm semantics):", res.ft_metric.value, "= t_comb^2")
print()

# lens spaces: one cell per dimension, rotation holonomy
for p in (3, 5, 7):
    item = corpus_get(f"lens-{p}-1")
    res = ft_torsion(item.complex, lens_rotation_bundle(p), item.spray)
    closed = (2 - 2 * np.cos(2 * np.pi / p)) ** 2
    print(f"L({p},1): t_comb = {res.t_comb:.12f}   closed form |det(R-I)|^2 = {closed:.12f}")
print()

# the Euler-structure transformation law
print(f"pinned exponent s = {EULER_ACTION_EXPONENT}")
b2 = FlatBundle(1, {"e": [[2]]})
for n in (0, 1, 2, -1):
    u = h1_class_for(circ, (n,))
    ratio = euler_action_on_torsion(circ, b2, spray, u)
    print(f"  u = {n:+d}: ratio = {ratio:.6g} = |det rho(u)|^{EULER_ACTION_EXPONENT} = {det_of_class(circ, b2, u) ** EULER_ACTION_EXPONENT:.6g}")

rot = FlatBundle(2, {"e": [["3/5", "-4/5"], ["4/5", "3/5"]]})
u = h1_class_for(circ, (1,))
print("volume-preserving bundle: ratio =", euler_action_on_torsion(circ, rot, spray, u))
