import math

import pytest

from torsionlab import linalg_exact as lx
from torsionlab.barycentric import barycentric_subdivide
from torsionlab.complex_core import (
    Cell,
    ComplexDescription,
    EdgePath,
    Incidence,
    cw_complex_from_words,
    point_complex,
    simplicial_complex,
)
from torsionlab.corpus import build_lens, corpus_get, corpus_list
from torsionlab.errors import (
    InvalidComplexError,
    PathComplexMismatchError,
    UnsupportedStructureError,
)


def circle():
    return corpus_get("circle-1cell").complex


def torus():
    return corpus_get("torus").complex


def subdivisions(name, rounds):
    """The corpus complex and its barycentric subdivisions, as far as supported."""
    item = corpus_get(name)
    cx, bundle, spray = item.complex, item.bundle, item.spray
    out = [cx]
    for _ in range(rounds):
        try:
            cx, bundle, spray, _ = barycentric_subdivide(cx, bundle, spray)
        except UnsupportedStructureError:  # cellular 3-complexes (lens spaces)
            break
        out.append(cx)
    return out


def dense_homology(cx, degree):
    """Reference H_degree from dense Smith normal forms of the boundary matrices."""

    def divisors(d):
        m = cx.boundary_matrix_int(d)
        if not m or not m[0]:
            return []
        _, snf, _, _, _ = lx.smith_normal_form(m)
        return [snf[i][i] for i in range(min(len(m), len(m[0]))) if snf[i][i]]

    n = len(cx.cells_of_dim(degree))
    if n == 0:
        return 0, []
    up = divisors(degree + 1)
    return n - len(divisors(degree)) - len(up), sorted(x for x in up if x > 1)


def full_homology(cx):
    return [cx.integral_homology(d) for d in range(cx.dim + 1)]


# one-vertex circle v, e and a 2-cell F on it, broken one way per case
_V, _E, _F = Cell("v", 0, "v"), Cell("e", 1, "v"), Cell("F", 2, "v")
_HEAD = Incidence("e", "v", 1, EdgePath((("e", 1),), "v", "v"))
_TAIL = Incidence("e", "v", -1, EdgePath((), "v", "v"))
_FE = Incidence("F", "e", 1, EdgePath((), "v", "v"))
_FE_BACK = Incidence("F", "e", -1, EdgePath((("e", 1), ("e", -1)), "v", "v"))
_STRAY = EdgePath((("x", 1),), "v", "v")  # steps along an edge that is not there
_NOT_CONNECTED = ("connectivity", "1-skeleton is not connected")
_BAD_CONNECTOR = ("connector", "incidence 'F'->'e' connector is not a walk 'v' -> 'v'")

# case -> (cells, incidences, base vertex, violations in report order)
MALFORMED = {
    "duplicate-id": (
        [_V, _V, _E], [_HEAD, _TAIL], "v", [("duplicate-id", "cell ids are not unique")]
    ),
    "base-vertex": (
        [_V, _E], [_HEAD, _TAIL], "w",
        [("base-vertex", "base vertex 'w' is not a 0-cell"), _NOT_CONNECTED],
    ),
    "dimension": (
        [_V, _E, Cell("x", -1, "v")], [_HEAD, _TAIL], "v",
        [("dimension", "cell 'x' has negative dimension")],
    ),
    "anchor": (
        [_V, Cell("w", 0, "v"), Cell("e", 1, "e")], [_HEAD, _TAIL], "v",
        [
            ("anchor", "0-cell 'w' must anchor itself"),
            ("anchor", "cell 'e' anchor 'e' is not a 0-cell"),
            ("connector", "incidence 'e'->'v' connector is not a walk 'e' -> 'v'"),
            ("connector", "incidence 'e'->'v' connector is not a walk 'e' -> 'v'"),
            _NOT_CONNECTED,
        ],
    ),
    "incidence": (
        [_V, _E], [_HEAD, _TAIL, Incidence("G", "e", 1, EdgePath((), "v", "v"))], "v",
        [("incidence", "incidence 'G'->'e' names unknown cells")],
    ),
    "incidence-dim": (
        [_V, _E, _F], [_HEAD, _TAIL, _FE, _FE_BACK, Incidence("F", "v", 1, EdgePath((), "v", "v"))],
        "v", [("incidence-dim", "incidence 'F'->'v' connects dim 2 to dim 0")],
    ),
    "incidence-coeff": (
        [_V, _E, _F], [_HEAD, _TAIL, _FE, _FE_BACK, Incidence("F", "e", 0, EdgePath((), "v", "v"))],
        "v", [("incidence-coeff", "incidence 'F'->'e' has coefficient 0")],
    ),
    "edge-endpoints": (
        [_V, _E, _F], [_HEAD, _HEAD, _FE], "v",
        [
            ("edge-endpoints", "1-cell 'e' needs exactly one +1 and one -1 vertex record"),
            ("boundary-squared", "d(d('F')) has coefficient 2 on 'v'"),
        ],
    ),
    "connector": (
        [_V, _E, _F],
        [
            _HEAD, _TAIL, _FE, Incidence("F", "e", -1, _STRAY),
            Incidence("F", "e", 1, EdgePath((("e", 1),), "v", "w")),
        ],
        "v", [_BAD_CONNECTOR, _BAD_CONNECTOR],
    ),
    "connectivity": ([_V, Cell("w", 0, "w"), _E], [_HEAD, _TAIL], "v", [_NOT_CONNECTED]),
    "mixed": (
        [_V, _E, _F, Cell("w", 0, "v")],
        [
            Incidence("F", "v", 1, EdgePath((), "v", "v")),
            Incidence("G", "e", 1, EdgePath((), "v", "v")),
            _HEAD, _TAIL, Incidence("F", "e", 0, _STRAY), _FE, _FE_BACK,
        ],
        "v",
        [
            ("anchor", "0-cell 'w' must anchor itself"),
            ("incidence-dim", "incidence 'F'->'v' connects dim 2 to dim 0"),
            ("incidence", "incidence 'G'->'e' names unknown cells"),
            ("incidence-coeff", "incidence 'F'->'e' has coefficient 0"),
            _BAD_CONNECTOR,
            _NOT_CONNECTED,
        ],
    ),
}


class TestValidation:
    def test_smallest_legal_complex_is_valid(self):
        assert circle().validate().ok

    def test_injected_boundary_violation_names_the_pair(self):
        # a 2-cell glued so that the integer boundary does not square to zero
        cx = cw_complex_from_words(
            "bad", ["v"], {"a": ("v", "v")}, {"F": [("a", 1), ("a", 1)]}, "v"
        )
        # corrupt: drop one of the two face records so d(dF) = d(a) pattern breaks
        recs = [r for r in cx.incidences]
        # replace the face records with a single +1 record: dF = a, d(dF) = 0 still;
        # instead break an edge record sign to violate dd = 0
        bad_incs = []
        for r in recs:
            if r.coface == "a" and r.coeff == -1:
                bad_incs.append(Incidence("a", "v", 1, r.path))
            else:
                bad_incs.append(r)
        bad = ComplexDescription(cx.cells, bad_incs, "v", "bad")
        rep = bad.validate()
        assert not rep.ok
        joined = rep.summary()
        assert "F" in joined and "v" in joined

    def test_boundary_squared_messages_in_row_major_order(self):
        # every record of one 2-cell made +1: violations in degrees 2 and 3
        good = corpus_get("tetra-solid").complex
        face = good.cells_of_dim(2)[0].id
        incs = [
            Incidence(r.coface, r.face, 1, r.path) if r.coface == face else r
            for r in good.incidences
        ]
        bad = ComplexDescription(good.cells, incs, good.base_vertex, "bad")
        want = []
        for d in range(2, bad.dim + 1):
            b1, b2 = bad.boundary_matrix_int(d - 1), bad.boundary_matrix_int(d)
            for i, f in enumerate(bad.cells_of_dim(d - 2)):
                for j, cf in enumerate(bad.cells_of_dim(d)):
                    x = sum(b1[i][k] * b2[k][j] for k in range(len(b2)))
                    if x:
                        want.append(f"d(d({cf.id!r})) has coefficient {x} on {f.id!r}")
        got = [m for code, m in bad.validate().violations if code == "boundary-squared"]
        assert len(got) > 2 and got == want

    def test_torus_is_valid_and_coefficients_cancel(self):
        cx = torus()
        assert cx.validate().ok
        b2 = cx.boundary_matrix_int(2)
        # hand check: the a b a^-1 b^-1 word contributes +1 and -1 per edge
        assert b2 == [[0], [0]]

    def test_large_coefficient_validates(self):
        # d(F) = 2**40 e on a loop edge: past int64 products, exact in Python ints
        cells = [Cell("v", 0, "v"), Cell("e", 1, "v"), Cell("F", 2, "v")]
        incs = [
            Incidence("e", "v", 1, EdgePath((("e", 1),), "v", "v")),
            Incidence("e", "v", -1, EdgePath((), "v", "v")),
            Incidence("F", "e", 2**40, EdgePath((), "v", "v")),
        ]
        cx = ComplexDescription(cells, incs, "v", "big")
        assert cx.validate().ok
        assert cx.integral_homology(1) == (0, [2**40])

    def test_chi_requires_valid_complex(self):
        cells = [Cell("v", 0, "v"), Cell("e", 1, "w")]
        cx = ComplexDescription(cells, [], "v", "broken")
        with pytest.raises(InvalidComplexError):
            cx.euler_characteristic()

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_report_pins_codes_messages_and_order(self, case):
        cells, incidences, base, want = MALFORMED[case]
        cx = ComplexDescription(cells, incidences, base, case)
        assert cx.validate().violations == want


class TestWordBuilder:
    @pytest.mark.parametrize(
        "edges, word, words",
        [
            ({"a": ("v", "v")}, [], "empty attaching word"),
            ({"a": ("v", "v")}, [("z", 1)], "'z'"),
            ({"a": ("v", "w"), "b": ("v", "w")}, [("a", 1), ("b", 1)], "not head-to-tail"),
            ({"a": ("v", "w"), "b": ("v", "w")}, [("a", 1)], "does not close"),
        ],
    )
    def test_malformed_word_raises(self, edges, word, words):
        with pytest.raises(PathComplexMismatchError, match=words):
            cw_complex_from_words("bad", ["v", "w"], edges, {"F": word}, "v")

    def test_records_carry_prefix_connectors(self):
        cx = cw_complex_from_words(
            "w", ["v", "w"], {"a": ("v", "w"), "b": ("v", "w")}, {"F": [("a", 1), ("b", -1)]}, "v"
        )
        assert cx.cells == (
            Cell("v", 0, "v"), Cell("w", 0, "w"), Cell("a", 1, "v"), Cell("b", 1, "v"),
            Cell("F", 2, "v"),
        )
        assert cx.records_of("a") == [
            Incidence("a", "w", 1, EdgePath((("a", 1),), "v", "w")),
            Incidence("a", "v", -1, EdgePath((), "v", "v")),
        ]
        assert cx.records_of("F") == [
            Incidence("F", "a", 1, EdgePath((), "v", "v")),
            Incidence("F", "b", -1, EdgePath((("a", 1), ("b", -1)), "v", "v")),
        ]
        assert cx.validate().ok


class TestEulerCharacteristic:
    def test_circle_is_zero(self):
        assert circle().euler_characteristic() == 0

    def test_point_is_one(self):
        assert point_complex().euler_characteristic() == 1

    def test_sphere_boundary_of_simplex_is_two(self):
        sph = corpus_get("sphere").complex
        assert len(sph.cells_of_dim(0)) == 4
        assert len(sph.cells_of_dim(1)) == 6
        assert len(sph.cells_of_dim(2)) == 4
        assert sph.euler_characteristic() == 2


class TestIntegralHomology:
    def test_torus_degree_one(self):
        assert torus().integral_homology(1) == (2, [])

    def test_projective_plane_degree_one(self):
        assert corpus_get("rp2").complex.integral_homology(1) == (0, [2])

    def test_circle_degree_zero(self):
        assert circle().integral_homology(0) == (1, [])

    def test_lens_homology(self):
        for p, q in ((3, 1), (5, 1), (5, 2), (7, 1)):
            lens = build_lens(p, q)
            assert lens.integral_homology(0) == (1, [])
            assert lens.integral_homology(1) == (0, [p])
            assert lens.integral_homology(2) == (0, [])
            assert lens.integral_homology(3) == (1, [])

    def test_klein_degree_one(self):
        assert corpus_get("klein").complex.integral_homology(1) == (1, [2])

    @pytest.mark.parametrize("name", corpus_list())
    def test_matches_dense_snf_through_two_rounds(self, name):
        # tetra-solid stops at one round: the dense reference on its second
        # subdivision (2745 cells) takes about a minute; see the test below
        for r, cx in enumerate(subdivisions(name, 1 if name == "tetra-solid" else 2)):
            for d in range(cx.dim + 2):
                assert cx.integral_homology(d) == dense_homology(cx, d), (name, r, d)

    def test_tetra_solid_second_subdivision(self):
        cx = subdivisions("tetra-solid", 2)[-1]
        assert len(cx.cells) == 2745
        assert full_homology(cx) == [(1, []), (0, []), (0, []), (0, [])]

    def test_lens_spaces_match_dense_snf(self):
        for p in (2, 3, 5, 7):
            for q in range(1, p):
                if math.gcd(p, q) == 1:
                    lens = build_lens(p, q)
                    for d in range(5):
                        assert lens.integral_homology(d) == dense_homology(lens, d), (p, q, d)

    def test_non_unit_residual(self):
        # one 2-cell attached along a^3: no unit pivot, H_1 = Z/3 from the residual
        cx = cw_complex_from_words("z3", ["v"], {"a": ("v", "v")}, {"F": [("a", 1)] * 3}, "v")
        assert [cx.integral_homology(d) for d in range(3)] == [(1, []), (0, [3]), (0, [])]
        # 2-cells along a^2 and a^3: the residual [2 3] has invariant factor 1
        cx = cw_complex_from_words(
            "z23", ["v"], {"a": ("v", "v")}, {"F": [("a", 1)] * 2, "G": [("a", 1)] * 3}, "v"
        )
        assert [cx.integral_homology(d) for d in range(3)] == [(1, []), (0, []), (1, [])]

    def test_cancelling_boundary_column(self):
        # a 2-cell along a a^-1: its records cancel, so it is a 2-cycle (S^1 v S^2)
        cx = cw_complex_from_words(
            "fold", ["v"], {"a": ("v", "v")}, {"F": [("a", 1), ("a", -1)]}, "v"
        )
        assert cx.boundary_matrix_int(2) == [[0]]
        assert [cx.integral_homology(d) for d in range(3)] == [(1, []), (1, []), (1, [])]

    @pytest.mark.parametrize("name", ["torus", "klein", "rp2"])
    def test_subdivision_invariance_three_rounds(self, name):
        cxs = subdivisions(name, 3)
        assert len(cxs) == 4
        assert full_homology(cxs[-1]) == full_homology(cxs[0])


class TestEdgePaths:
    def test_compose_and_reverse(self):
        cx = corpus_get("circle-2vertex").complex
        p = EdgePath((("e1", 1),), "v1", "v2")
        q = EdgePath((("e2", 1),), "v2", "v1")
        loop = p.compose(q)
        assert loop.is_closed and cx.path_is_valid(loop)
        assert loop.reverse().steps == (("e2", -1), ("e1", -1))
        assert p.repeat(0).is_empty

    def test_path_chain_cancels(self):
        cx = circle()
        p = EdgePath((("e", 1), ("e", -1)), "v", "v")
        assert cx.path_chain(p) == {}

    def test_edge_endpoints_of_a_malformed_edge_raise_every_time(self):
        cx = corpus_get("circle-2vertex").complex
        # e1 keeps only its head record, so it has no tail
        recs = [r for r in cx.incidences if not (r.coface == "e1" and r.coeff == -1)]
        bad = ComplexDescription(cx.cells, recs, cx.base_vertex, "bad")
        assert bad.edge_endpoints("e2") == cx.edge_endpoints("e2")
        for _ in range(2):
            with pytest.raises(PathComplexMismatchError, match="e1"):
                bad.edge_endpoints("e1")


def scan_spanning_tree(cx):
    """The earlier spanning tree, kept as the reference: after each vertex it
    adds, rescan the edges in order for the first with one endpoint in the tree."""
    edges = cx.cells_of_dim(1)
    in_tree_vertices = {cx.base_vertex}
    tree_edges = []
    parent = {cx.base_vertex: None}
    changed = True
    while changed:
        changed = False
        for e in edges:
            t, h = cx.edge_endpoints(e.id)
            if t in in_tree_vertices and h not in in_tree_vertices:
                tree_edges.append(e.id)
                parent[h] = (e.id, 1, t)
                in_tree_vertices.add(h)
                changed = True
                break
            if h in in_tree_vertices and t not in in_tree_vertices:
                tree_edges.append(e.id)
                parent[t] = (e.id, -1, h)
                in_tree_vertices.add(t)
                changed = True
                break
    return set(tree_edges), parent


class TestSpanningTree:
    @pytest.mark.parametrize("name", corpus_list())
    def test_equals_the_rescanning_reference_at_rounds_0_to_2(self, name):
        item = corpus_get(name)
        cx, bundle, spray = item.complex, item.bundle, item.spray
        rounds = [cx]
        while len(rounds) < 3 and not name.startswith("lens-"):  # a lens cell cannot be subdivided
            cx, bundle, spray, _ = barycentric_subdivide(cx, bundle, spray)
            rounds.append(cx)
        for cx in rounds:
            tree, parent = cx.spanning_tree()
            want_tree, want_parent = scan_spanning_tree(cx)
            assert tree == want_tree and list(parent.items()) == list(want_parent.items())

    def test_two_vertex_circle_lowest_id_rule(self):
        # two spanning trees exist ({e1} and {e2}); lowest-id growth picks e1
        cx = corpus_get("circle-2vertex").complex
        tree, _ = cx.spanning_tree()
        assert tree == {"e1"}
        assert cx.tree_path("v2").steps == (("e1", 1),)

    def test_fundamental_loop_is_closed(self):
        cx = corpus_get("circle-2vertex").complex
        loop = cx.fundamental_loop("e2")
        assert loop.is_closed and loop.src == "v1"
        assert cx.path_is_valid(loop)


class TestH1Lattice:
    def test_representative_round_trip(self):
        for name in ("torus", "klein", "circle-1cell", "lens-5-1"):
            cx = corpus_get(name).complex
            lat = cx.h1_lattice()
            from itertools import product

            ranges = [range(0, c) for c in lat.torsion] + [
                range(-2, 3) for _ in range(lat.rank)
            ]
            for coords in product(*ranges) if ranges else [()]:
                loop = lat.representative_loop(coords)
                assert cx.path_is_valid(loop)
                assert lat.class_of_loop(loop) == lat.reduce(coords)

    def test_kernel_saturated_and_coordinates(self):
        # a triangle of edges: the cycle lattice is Z, spanned by the +-(1, 1, 1) loop
        cx = cw_complex_from_words(
            "tri", ["u", "v", "w"], {"a": ("u", "v"), "b": ("v", "w"), "c": ("w", "u")}, {}, "u"
        )
        lat = cx.h1_lattice()
        (k,) = lat._kernel_cols
        assert k[0] == k[1] == k[2] in (1, -1)
        g = lat.generator_cycle(0)
        assert lat.class_of_chain({e: 2 * x for e, x in zip("abc", g)}) == (2,)
        with pytest.raises(lx.SingularMatrixError):
            lat.class_of_chain({"a": 1})

    def test_generator_loops_are_unit_coordinates_on_torus_round_3(self):
        lat = subdivisions("torus", 3)[-1].h1_lattice()
        loops = lat.generator_loops()
        assert lat.torsion == [] and lat.rank == len(loops) == 2
        for i, loop in enumerate(loops):
            assert lat.class_of_loop(loop) == tuple(int(i == j) for j in range(2))

    def test_boundary_loops_are_trivial(self):
        cx = torus()
        lat = cx.h1_lattice()
        word = EdgePath(
            (("a", 1), ("b", 1), ("a", -1), ("b", -1)), "v", "v"
        )
        assert lat.class_of_loop(word) == lat.zero()


class TestAttachingWalks:
    def test_torus_walk_reconstruction(self):
        cx = torus()
        walk = cx.attaching_walk("F")
        assert walk.steps == (("a", 1), ("b", 1), ("a", -1), ("b", -1))

    def test_lens_walk_is_loop_power(self):
        lens = build_lens(5, 1)
        walk = lens.attaching_walk("F")
        assert walk.steps == (("e", 1),) * 5

    def test_simplicial_triangle_walk(self):
        cx = simplicial_complex("tri", [(1, 2, 3)])
        walk = cx.attaching_walk("1|2|3")
        assert [s for s in walk.steps] == [("1|2", 1), ("2|3", 1), ("1|3", -1)]
