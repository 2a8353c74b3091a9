"""Sprays, their difference classes, and the H1 torsor action.

A spray assigns to every cell a walk from the base vertex to the cell's
anchor.  Two sprays differ by the class of the signed cycle
sum_cells (-1)^dim (beta_leg - alpha_leg); the orientation is fixed so that
prepending a based loop gamma to every leg shifts the class by chi * [gamma].
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

from .errors import OpenPathError, PathComplexMismatchError, SprayError


@dataclass(frozen=True)
class H1Class:
    """Element of H_1(M; Z) in SNF coordinates (torsion slots reduced)."""

    coords: tuple
    torsion: tuple
    rank: int

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def _lat_check(self, other):
        if self.torsion != other.torsion or self.rank != other.rank:
            raise PathComplexMismatchError("H1 classes live in different groups")

    def __add__(self, other):
        self._lat_check(other)
        coords = [a + b for a, b in zip(self.coords, other.coords)]
        return h1_class(coords, self.torsion, self.rank)

    def __neg__(self):
        return h1_class([-c for c in self.coords], self.torsion, self.rank)

    def __sub__(self, other):
        return self + (-other)


def h1_class(coords, torsion, rank):
    coords = list(coords)
    if len(coords) != len(torsion) + rank:
        raise PathComplexMismatchError(
            f"H1 class needs {len(torsion) + rank} coordinates, got {len(coords)}"
        )
    for i, c in enumerate(torsion):
        coords[i] %= c
    return H1Class(tuple(coords), tuple(torsion), rank)


def h1_class_for(complex_, coords):
    lat = complex_.h1_lattice()
    return h1_class(coords, tuple(lat.torsion), lat.rank)


def h1_zero(complex_):
    lat = complex_.h1_lattice()
    return h1_class(lat.zero(), tuple(lat.torsion), lat.rank)


@dataclass(frozen=True)
class Spray:
    """One leg per cell: a walk from the base vertex to the cell's anchor."""

    legs: tuple  # ordered tuple of (cell id, EdgePath)

    @functools.cached_property
    def _leg_of(self):
        # reversed, so a repeated cell id keeps its first leg
        return dict(reversed(self.legs))

    def leg(self, cell_id):
        try:
            return self._leg_of[cell_id]
        except KeyError:
            raise SprayError(f"spray has no leg for cell {cell_id!r}") from None

    def as_dict(self):
        return dict(self.legs)

    def with_leg(self, cell_id, path):
        return Spray(tuple((c, path if c == cell_id else p) for c, p in self.legs))


def validate_spray(complex_, spray):
    complex_.require_valid()
    have = {c for c, _ in spray.legs}
    want = {c.id for c in complex_.cells}
    if have != want:
        raise SprayError(
            f"spray legs do not match cells (missing {sorted(want - have, key=str)}, "
            f"extra {sorted(have - want, key=str)})"
        )
    if len(have) != len(spray.legs):
        twice = next(c for c, n in Counter(c for c, _ in spray.legs).items() if n > 1)
        raise SprayError(f"spray lists cell {twice!r} twice")
    for cid, path in spray.legs:
        anchor = complex_.cell(cid).anchor
        if path.src != complex_.base_vertex or path.dst != anchor:
            raise SprayError(
                f"leg of {cid!r} must run {complex_.base_vertex!r} -> {anchor!r}"
            )
        if not complex_.path_is_valid(path):
            raise SprayError(f"leg of {cid!r} is not a walk in the 1-skeleton")


def canonical_spray(complex_):
    """Spray whose legs are spanning-tree paths (lowest-id-first tree)."""
    complex_.require_valid()
    legs = []
    for c in sorted(complex_.cells, key=lambda c: (c.dim, str(c.id))):
        legs.append((c.id, complex_.tree_path(c.anchor)))
    return Spray(tuple(legs))


def spray_difference(complex_, alpha, beta):
    """Difference class of two sprays on the same complex."""
    validate_spray(complex_, alpha)
    validate_spray(complex_, beta)
    chain = {}
    for cid, b_leg in beta.legs:
        a_leg = alpha.leg(cid)
        sign = (-1) ** complex_.cell(cid).dim
        for e, c in complex_.path_chain(b_leg).items():
            chain[e] = chain.get(e, 0) + sign * c
        for e, c in complex_.path_chain(a_leg).items():
            chain[e] = chain.get(e, 0) - sign * c
    chain = {e: c for e, c in chain.items() if c != 0}
    lat = complex_.h1_lattice()
    coords = lat.class_of_chain(chain)
    return h1_class(coords, tuple(lat.torsion), lat.rank)


def _modification_cell(complex_):
    """Lowest-id cell other than the base vertex, if any."""
    others = [c for c in complex_.cells if c.id != complex_.base_vertex]
    if not others:
        return None
    return min(others, key=lambda c: (str(c.id)))


def act(complex_, u, alpha):
    """Spray beta with spray_difference(alpha, beta) == u.

    Deterministic: prepends a representative loop to the leg of a fixed
    lowest-id non-base cell (representative of u for even dimension, of -u
    for odd dimension).
    """
    validate_spray(complex_, alpha)
    lat = complex_.h1_lattice()
    u = h1_class(u.coords, u.torsion, u.rank)
    if u.torsion != tuple(lat.torsion) or u.rank != lat.rank:
        raise PathComplexMismatchError("H1 class does not belong to this complex")
    if u.is_zero:
        return alpha
    cell = _modification_cell(complex_)
    if cell is None:
        raise SprayError("no modifiable cell and u is nonzero")
    coords = u.coords if cell.dim % 2 == 0 else (-u).coords
    gamma = lat.representative_loop(coords)
    return alpha.with_leg(cell.id, gamma.compose(alpha.leg(cell.id)))


def loop_modify(complex_, alpha, gamma):
    """Prepend a based loop to every leg; shifts the class by chi * [gamma]."""
    validate_spray(complex_, alpha)
    if not gamma.is_closed or gamma.src != complex_.base_vertex:
        raise OpenPathError("gamma must be a loop at the base vertex")
    if not complex_.path_is_valid(gamma):
        raise PathComplexMismatchError("gamma is not a walk in the 1-skeleton")
    return Spray(tuple((cid, gamma.compose(leg)) for cid, leg in alpha.legs))


def leg_shift_loops(alpha, beta, cell_ids):
    """Based loops gamma with beta_leg = gamma . alpha_leg (as walks), one per cell id.

    Used to transport twisted chains between the two spray frames; the loop of
    cell c is beta_leg(c) followed by alpha_leg(c) reversed.
    """
    return [beta.leg(c).compose(alpha.leg(c).reverse()) for c in cell_ids]
