import numpy as np
import pytest

from torsionlab.barycentric import barycentric_subdivide
from torsionlab.complex_core import EdgePath, point_complex
from torsionlab.corpus import corpus_get
from torsionlab.errors import OpenPathError, PathComplexMismatchError, SprayError
from torsionlab.euler_struct import (
    Spray,
    act,
    canonical_spray,
    h1_class,
    h1_class_for,
    h1_zero,
    loop_modify,
    spray_difference,
    validate_spray,
)


class TestCanonicalSpray:
    def test_point_single_empty_leg(self):
        cx = point_complex()
        s = canonical_spray(cx)
        assert s.legs == (("m", EdgePath((), "m", "m")),)

    def test_one_vertex_circle_all_legs_empty(self):
        cx = corpus_get("circle-1cell").complex
        s = canonical_spray(cx)
        assert all(leg.is_empty for _, leg in s.legs)

    def test_two_vertex_circle_uses_tree_edge(self):
        cx = corpus_get("circle-2vertex").complex
        s = canonical_spray(cx)
        legs = s.as_dict()
        assert legs["v2"].steps == (("e1", 1),)
        assert legs["e2"].steps == (("e1", 1),)  # e2 anchors at its tail v2
        assert legs["v1"].is_empty and legs["e1"].is_empty
        validate_spray(cx, s)

    def test_missing_leg_rejected(self):
        cx = corpus_get("circle-1cell").complex
        with pytest.raises(SprayError):
            validate_spray(cx, Spray((("v", EdgePath((), "v", "v")),)))


def circle_legs(**changes):
    """circle-2vertex's corpus spray with the named legs replaced by (steps, src, dst)."""
    legs = dict(corpus_get("circle-2vertex").spray.legs)
    legs.update({c: EdgePath(steps, src, dst) for c, (steps, src, dst) in changes.items()})
    return Spray(tuple(legs.items()))


class TestValidateSpray:
    """The SprayError of each kind of bad spray, pinned, and which leg is reported first."""

    E1, E2 = ("e1", 1), ("e2", 1)
    NOT_A_WALK = "leg of {!r} is not a walk in the 1-skeleton"

    @pytest.mark.parametrize(
        "spray, message",
        [
            (Spray(circle_legs().legs[:-1]), "spray legs do not match cells (missing ['e2'], extra [])"),
            (Spray(circle_legs().legs + (("x", EdgePath((), "v1", "v1")),)),
             "spray legs do not match cells (missing [], extra ['x'])"),
            (circle_legs(v2=((E2,), "v2", "v1")), "leg of 'v2' must run 'v1' -> 'v2'"),
            (circle_legs(e2=((E1,), "v1", "v1")), "leg of 'e2' must run 'v1' -> 'v2'"),
            (circle_legs(v2=((("e9", 1),), "v1", "v2")), NOT_A_WALK.format("v2")),  # no such edge
            (circle_legs(v2=((("v2", 1),), "v1", "v2")), NOT_A_WALK.format("v2")),  # a vertex
            (circle_legs(v2=((E2,), "v1", "v2")), NOT_A_WALK.format("v2")),  # not from the tail
            (circle_legs(v2=((E1, E2), "v1", "v2")), NOT_A_WALK.format("v2")),  # ends at v1
            (circle_legs(v2=((E1, ("e1", -1), E1, ("e2", -1)), "v1", "v2")), NOT_A_WALK.format("v2")),
            # both legs are bad: the first in spray order is reported, the anchor before the walk
            (circle_legs(v2=((E2,), "v1", "v2"), e2=((), "v1", "v1")), NOT_A_WALK.format("v2")),
            (circle_legs(v2=((E2,), "v1", "v1"), e2=((E2,), "v1", "v2")),
             "leg of 'v2' must run 'v1' -> 'v2'"),
            # a second good leg for e2: Spray.leg, assemble and spray_difference would disagree
            (Spray(circle_legs().legs + (("e2", EdgePath((("e2", -1),), "v1", "v2")),)),
             "spray lists cell 'e2' twice"),
            (circle_legs(v1=((E1, E2), "v1", "v1")), None),
            (circle_legs(e2=((E1, E2, E1), "v1", "v2")), None),
        ],
    )
    def test_messages_and_order(self, spray, message):
        cx = corpus_get("circle-2vertex").complex
        if message is None:
            validate_spray(cx, spray)
            return
        with pytest.raises(SprayError) as err:
            validate_spray(cx, spray)
        assert str(err.value) == message

    def test_a_step_across_a_two_cell_is_no_walk(self):
        cx = corpus_get("torus").complex
        with pytest.raises(PathComplexMismatchError, match="'F' is not a 1-cell"):
            cx.edge_endpoints("F")
        legs = dict(corpus_get("torus").spray.legs)
        legs["a"] = EdgePath((("F", 1),), "v", "v")
        with pytest.raises(SprayError, match="leg of 'a' is not a walk"):
            validate_spray(cx, Spray(tuple(legs.items())))

    def test_the_steps_of_a_good_leg_under_another_anchor_are_no_walk(self):
        cx = corpus_get("circle-2vertex").complex
        good = circle_legs()  # v2 and e2 share the steps (e1,) and the anchor v2
        validate_spray(cx, good)
        legs = dict(good.legs)
        legs["e1"] = EdgePath((("e1", 1),), "v1", "v1")  # after v2's leg: same steps, anchor v1
        with pytest.raises(SprayError) as err:
            validate_spray(cx, Spray(tuple(legs.items())))
        assert str(err.value) == self.NOT_A_WALK.format("e1")


class TestSprayDifference:
    def test_equal_sprays_give_zero(self):
        cx = corpus_get("torus").complex
        s = canonical_spray(cx)
        assert spray_difference(cx, s, s).is_zero

    def test_circle_single_leg_winding_gives_generator(self):
        cx = corpus_get("circle-1cell").complex
        alpha = canonical_spray(cx)
        loop = EdgePath((("e", 1),), "v", "v")
        beta = alpha.with_leg("e", loop.compose(alpha.leg("e")))
        d = spray_difference(cx, alpha, beta)
        # the 1-cell has odd dimension: the signed cycle is minus the loop
        assert d.coords in ((1,), (-1,)) and not d.is_zero

    def test_torus_all_legs_shifted_cancels(self):
        cx = corpus_get("torus").complex
        alpha = canonical_spray(cx)
        loop = cx.h1_lattice().representative_loop((1, 0))
        beta = Spray(tuple((cid, loop.compose(leg)) for cid, leg in alpha.legs))
        assert spray_difference(cx, alpha, beta).is_zero  # chi(torus) = 0

    def test_cocycle_identity_exact(self):
        cx = corpus_get("klein").complex
        alpha = canonical_spray(cx)
        u = h1_class_for(cx, (1, 2))
        v = h1_class_for(cx, (1, -1))
        beta = act(cx, u, alpha)
        delta = act(cx, v, beta)
        lhs = spray_difference(cx, alpha, beta) + spray_difference(cx, beta, delta)
        assert lhs.coords == spray_difference(cx, alpha, delta).coords


class TestAct:
    def test_zero_returns_alpha(self):
        cx = corpus_get("torus").complex
        alpha = canonical_spray(cx)
        assert act(cx, h1_zero(cx), alpha) is alpha

    def test_group_action_law(self):
        cx = corpus_get("torus").complex
        alpha = canonical_spray(cx)
        u = h1_class_for(cx, (1, -2))
        v = h1_class_for(cx, (3, 1))
        lhs = act(cx, u, act(cx, v, alpha))
        rhs = act(cx, u + v, alpha)
        assert spray_difference(cx, lhs, rhs).is_zero

    def test_circle_generator_winds_once(self):
        cx = corpus_get("circle-1cell").complex
        alpha = canonical_spray(cx)
        u = h1_class_for(cx, (1,))
        beta = act(cx, u, alpha)
        assert spray_difference(cx, alpha, beta).coords == (1,)
        moved = [cid for cid, leg in beta.legs if leg.steps != alpha.leg(cid).steps]
        assert moved == ["e"]
        assert len(beta.leg("e").steps) == 1

    def test_exhaustive_box(self):
        from itertools import product

        for name in ("circle-1cell", "torus", "klein"):
            cx = corpus_get(name).complex
            lat = cx.h1_lattice()
            alpha = canonical_spray(cx)
            ranges = [range(0, c) for c in lat.torsion] + [
                range(-3, 4) for _ in range(lat.rank)
            ]
            for coords in product(*ranges):
                u = h1_class_for(cx, coords)
                beta = act(cx, u, alpha)
                assert spray_difference(cx, alpha, beta).coords == u.coords

    def test_round_trips_on_twice_subdivided_torus(self):
        from itertools import product

        item = corpus_get("torus")
        cx, bundle, alpha = item.complex, item.bundle, item.spray
        for _ in range(2):
            cx, bundle, alpha, _ = barycentric_subdivide(cx, bundle, alpha)
        assert (cx.h1_lattice().torsion, cx.h1_lattice().rank) == ([], 2)
        for coords in product(range(-2, 3), repeat=2):
            u = h1_class_for(cx, coords)
            beta = act(cx, u, alpha)
            assert spray_difference(cx, alpha, beta).coords == coords
            assert spray_difference(cx, beta, alpha).coords == (-u).coords

    def test_wrong_coordinate_count_rejected(self):
        # klein: H1 = Z/2 + Z, so a class has exactly two coordinates
        for coords in ((), (1,), (1, 0, 0)):
            with pytest.raises(PathComplexMismatchError, match="needs 2 coordinates"):
                h1_class(coords, (2,), 1)
            with pytest.raises(PathComplexMismatchError):
                h1_class_for(corpus_get("klein").complex, coords)


class TestLoopModify:
    def test_trivial_loop_keeps_legs(self):
        cx = corpus_get("torus").complex
        alpha = canonical_spray(cx)
        same = loop_modify(cx, alpha, EdgePath((), "v", "v"))
        assert all(
            same.leg(cid).steps == alpha.leg(cid).steps for cid, _ in alpha.legs
        )

    def test_torus_any_loop_same_structure(self):
        cx = corpus_get("torus").complex
        alpha = canonical_spray(cx)
        gamma = cx.h1_lattice().representative_loop((2, -1))
        assert spray_difference(cx, alpha, loop_modify(cx, alpha, gamma)).is_zero

    def test_sphere_chi_two_trivial_h1(self):
        cx = corpus_get("sphere").complex
        alpha = canonical_spray(cx)
        loop = cx.fundamental_loop(
            next(e.id for e in cx.cells_of_dim(1) if e.id not in cx.spanning_tree()[0])
        )
        assert spray_difference(cx, alpha, loop_modify(cx, alpha, loop)).is_zero

    def test_projective_plane_chi_one(self):
        cx = corpus_get("rp2").complex
        lat = cx.h1_lattice()
        alpha = canonical_spray(cx)
        gamma = lat.representative_loop((1,))
        got = spray_difference(cx, alpha, loop_modify(cx, alpha, gamma))
        want = h1_class_for(cx, [cx.euler_characteristic() * c for c in lat.class_of_loop(gamma)])
        assert got.coords == want.coords

    def test_chi_weighted_shift_random_loops(self):
        rng = np.random.default_rng(21)
        for name in ("circle-1cell", "torus", "klein", "rp2"):
            cx = corpus_get(name).complex
            lat = cx.h1_lattice()
            chi = cx.euler_characteristic()
            alpha = canonical_spray(cx)
            from itertools import product

            ranges = [range(0, c) for c in lat.torsion] + [
                range(-2, 3) for _ in range(lat.rank)
            ]
            for coords in product(*ranges):
                gamma = lat.representative_loop(coords)
                got = spray_difference(cx, alpha, loop_modify(cx, alpha, gamma))
                want = h1_class_for(cx, [chi * c for c in lat.reduce(coords)])
                assert got.coords == want.coords

    def test_open_gamma_rejected(self):
        cx = corpus_get("circle-2vertex").complex
        alpha = canonical_spray(cx)
        with pytest.raises(OpenPathError):
            loop_modify(cx, alpha, EdgePath((("e1", 1),), "v1", "v2"))


class TestSprayLeg:
    def test_missing_leg_raises(self):
        with pytest.raises(SprayError):
            corpus_get("torus").spray.leg("no-such-cell")

    def test_repeated_cell_keeps_first_leg(self):
        legs = corpus_get("torus").spray.legs
        (cid, first), (_, other) = legs[0], legs[1]
        assert Spray(legs + ((cid, other),)).leg(cid) is first

    def test_lookup_keeps_equality_and_hash(self):
        spray = corpus_get("torus").spray
        same = Spray(spray.legs)
        assert all(same.leg(cid) is path for cid, path in spray.legs)
        assert same == spray and hash(same) == hash(spray)
