import hashlib
import json
import math

import numpy as np
import pytest
from fractions import Fraction

from torsionlab import barycentric
from torsionlab import linalg_exact as lx
from torsionlab.barycentric import barycentric_subdivide
from torsionlab.complex_core import (
    Cell,
    ComplexDescription,
    EdgePath,
    Incidence,
    point_complex,
    simplicial_complex,
)
from torsionlab.corpus import corpus_get, random_flat_bundle
from torsionlab.errors import UnsupportedDimensionError, UnsupportedStructureError
from torsionlab.euler_struct import act, canonical_spray, h1_class_for, validate_spray
from torsionlab.flat_bundle import FlatBundle, check_flatness, transport
from torsionlab.torsion_engine import assemble, ft_torsion


def subdivide_corpus(name, bundle=None, rank=1, seed=41):
    item = corpus_get(name)
    cx = item.complex
    if bundle is None:
        rng = np.random.default_rng(seed)
        bundle = random_flat_bundle(name, cx, rng, rank=rank)
    spray = canonical_spray(cx)
    return (cx, bundle, spray), barycentric_subdivide(cx, bundle, spray)


class TestBasics:
    def test_circle_two_vertices_two_edges_product_preserved(self):
        (cx, bundle, spray), (cx2, b2, s2, smap) = subdivide_corpus(
            "circle-1cell", FlatBundle(1, {"e": [[2]]})
        )
        assert len(cx2.cells_of_dim(0)) == 2
        assert len(cx2.cells_of_dim(1)) == 2
        loop = EdgePath((("e", 1),), "v", "v")
        assert transport(b2, smap.path_transfer(loop)) == [[Fraction(2)]]

    def test_point_unchanged(self):
        cx = point_complex()
        spray = canonical_spray(cx)
        cx2, b2, s2, smap = barycentric_subdivide(cx, FlatBundle(1, {}), spray)
        assert [c.id for c in cx2.cells] == [c.id for c in cx.cells]
        assert cx2.euler_characteristic() == 1

    def test_torus_chi_and_homology(self):
        (_, _, _), (cx2, _, _, _) = subdivide_corpus("torus")
        assert cx2.euler_characteristic() == 0
        assert cx2.integral_homology(1) == (2, [])

    def test_carriers_partition_target_cells(self):
        (_, _, _), (cx2, _, _, smap) = subdivide_corpus("klein")
        assert set(smap.cell_carriers) == {c.id for c in cx2.cells}

    def test_spray_and_validity(self):
        for name in ("torus", "rp2", "sphere"):
            (_, _, _), (cx2, b2, s2, _) = subdivide_corpus(name)
            assert cx2.validate().ok
            validate_spray(cx2, s2)
            assert check_flatness(cx2, b2).ok


class TestChainMap:
    def test_intertwines_twisted_boundaries(self):
        for name, rank in (("torus", 2), ("klein", 2), ("rp2", 2), ("sphere", 2)):
            (cx, bundle, spray), (cx2, b2, s2, smap) = subdivide_corpus(name, rank=rank)
            tcc, tcc2 = assemble(cx, bundle, spray), assemble(cx2, b2, s2)
            for d in range(1, cx.dim + 1):
                phi_d = smap.chain_map_matrix(d, bundle.rank)
                phi_p = smap.chain_map_matrix(d - 1, bundle.rank)
                resid = np.abs(phi_d @ tcc2.boundary(d) - tcc.boundary(d) @ phi_p).max()
                assert resid <= 1e-9

    @pytest.mark.parametrize("name, rounds", [("sphere", 2), ("rp2", 2), ("tetra-solid", 1)])
    def test_transport_reference_equals_the_dense_product(self, name, rounds):
        item = corpus_get(name)
        cx, spray = item.complex, item.spray
        bundle = random_flat_bundle(name, cx, np.random.default_rng(7), rank=2)
        rng = np.random.default_rng(11)
        for _ in range(rounds):
            cx2, b2, s2, smap = barycentric_subdivide(cx, bundle, spray)
            refs = {d: rng.standard_normal((2, 2 * len(cx.cells_of_dim(d)))) for d in range(cx.dim + 1)}
            got = smap.transport_reference(refs, 2)
            assert sorted(got) == sorted(refs)
            for d, rows in refs.items():
                assert np.array_equal(got[d], rows @ smap.chain_map_matrix(d, 2))
            with pytest.raises(ValueError, match="columns"):
                smap.transport_reference({0: rng.standard_normal((1, 3))}, 2)
            cx, bundle, spray = cx2, b2, s2

    def test_integer_chain_map_on_flags(self):
        (cx, bundle, spray), (cx2, b2, s2, smap) = subdivide_corpus("tetra-solid", rank=1)
        for d in range(1, 4):
            phi_d = smap.chain_map_matrix(d, 1)
            phi_p = smap.chain_map_matrix(d - 1, 1)
            tcc, tcc2 = assemble(cx, bundle, spray), assemble(cx2, b2, s2)
            resid = np.abs(phi_d @ tcc2.boundary(d) - tcc.boundary(d) @ phi_p).max()
            assert resid <= 1e-9


class TestBundleRefinement:
    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("name", ["torus", "klein", "tetra-solid"])
    def test_old_edges_keep_their_matrices_at_rank_two(self, name, exact):
        # torus and klein take the attaching-walk route, tetra-solid the flag route
        item = corpus_get(name)
        bundle = random_flat_bundle(name, item.complex, np.random.default_rng(5), rank=2)
        if not exact:
            bundle = bundle.as_float()
        cx2, b2, _, smap = barycentric_subdivide(item.complex, bundle, item.spray)
        assert check_flatness(cx2, b2).ok
        for e in item.complex.cells_of_dim(1):
            t, h = item.complex.edge_endpoints(e.id)
            got = transport(b2, smap.path_transfer(EdgePath(((e.id, 1),), t, h)))
            if exact:
                assert got == bundle.matrix(e.id)
            else:
                assert np.allclose(got, bundle.matrix(e.id), rtol=1e-12, atol=1e-12)

    def test_subdivide_after_ft_inverts_each_edge_once(self, monkeypatch):
        item = corpus_get("torus")
        bundle = FlatBundle(2, {"a": [[2, 1], [1, 1]], "b": [[1, 0], [0, 1]]})
        inverse_calls, inverted = [], []
        inverse, scaled_inverse = lx.inverse, lx.scaled_inverse

        def counted_inverse(a):
            inverse_calls.append(a)
            return inverse(a)

        def counted_scaled_inverse(a):
            inverted.append(a)
            return scaled_inverse(a)

        monkeypatch.setattr(lx, "inverse", counted_inverse)
        monkeypatch.setattr(lx, "scaled_inverse", counted_scaled_inverse)
        ft_torsion(item.complex, bundle, item.spray)
        barycentric_subdivide(item.complex, bundle, item.spray)
        assert inverse_calls == []
        # the attaching word a b a^-1 b^-1 steps backwards along both edges
        assert len(inverted) == 2
        assert {id(m) for m in inverted} == {id(bundle.scaled("a")), id(bundle.scaled("b"))}


    @pytest.mark.parametrize("name", ["torus", "klein", "tetra-solid"])
    def test_subdivided_bundles_are_born_with_their_inverses(self, name, monkeypatch):
        item = corpus_get(name)
        big = FlatBundle(2, {"a": [[2**40, 1], [2**40 - 1, 1]], "b": [[1, 0], [0, 1]]})
        bundles = [random_flat_bundle(name, item.complex, np.random.default_rng(7), rank=2)]
        bundles += [big] if name == "torus" else []
        for bundle in bundles:
            cx, spray = item.complex, item.spray
            for _ in range(1 if name == "tetra-solid" else 2):
                cx, bundle, spray, _ = barycentric_subdivide(cx, bundle, spray)
                for e in cx.cells_of_dim(1):
                    nums, den = bundle._pairs[e.id, -1]
                    assert not nums.flags.writeable
                    assert math.gcd(den, int(np.gcd.reduce(nums, axis=None, initial=0))) == 1
                    assert nums.dtype == np.int64 or lx._peak(nums) >= 2**63
                    want = lx.scaled_inverse(bundle.scaled(e.id))
                    assert lx.unscaled((nums, den)) == lx.unscaled(want)
            inverted = []
            with monkeypatch.context() as m:
                m.setattr(lx, "scaled_inverse", inverted.append)
                ft_torsion(cx, bundle, spray)
            assert inverted == []


class TestCheckReuse:
    def test_verdicts_of_the_last_assembly_are_not_checked_again(self, monkeypatch):
        item = corpus_get("torus")
        cx, spray = item.complex, item.spray
        bundle = FlatBundle(2, {"a": [[2, 1], [1, 1]], "b": [[1, 0], [0, 1]]})
        wound = act(cx, h1_class_for(cx, (0, 1)), spray)
        calls = []
        for name in ("validate_spray", "require_flat"):
            fn = getattr(barycentric, name)
            monkeypatch.setattr(barycentric, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))

        def checks(spray):
            calls.clear()
            barycentric_subdivide(cx, bundle, spray)
            return sorted(calls)

        assert checks(spray) == ["require_flat", "validate_spray"]  # nothing assembled yet
        assemble(cx, bundle, spray)
        assert checks(spray) == checks(canonical_spray(cx)) == []  # the same or an equal spray
        assert checks(wound) == ["validate_spray"]  # another spray on the same complex
        assemble(corpus_get("torus").complex, bundle, spray)  # the slot now holds another complex
        assert checks(spray) == ["require_flat", "validate_spray"]


class TestTorsionInvariance:
    def drift(self, name, bundle, rounds=2):
        item = corpus_get(name)
        cx, spray = item.complex, canonical_spray(item.complex)
        res = ft_torsion(cx, bundle, spray)
        base = res.ft_metric.value
        refs = {d: b for d, b in res.harmonic_bases.items() if b.size}
        worst = 0.0
        for _ in range(rounds):
            cx2, b2, s2, smap = barycentric_subdivide(cx, bundle, spray)
            refs = smap.transport_reference(refs, bundle.rank) if refs else {}
            res2 = ft_torsion(cx2, b2, s2, reference_cycles=refs or None)
            worst = max(worst, abs(res2.ft_metric.value - base) / base)
            cx, bundle, spray = cx2, b2, s2
        return worst

    def test_circle_acyclic_two_rounds(self):
        assert self.drift("circle-1cell", FlatBundle(1, {"e": [[3]]})) <= 1e-8

    def test_circle_rank_two_order_three(self):
        assert self.drift("circle-1cell", FlatBundle(2, {"e": [[0, -1], [1, -1]]})) <= 1e-8

    def test_torus_trivial_and_acyclic(self):
        assert self.drift("torus", FlatBundle(1, {"a": [[1]], "b": [[1]]})) <= 1e-8
        assert self.drift("torus", FlatBundle(1, {"a": [[2]], "b": [[3]]})) <= 1e-8

    def test_klein_and_rp2(self):
        assert self.drift("klein", FlatBundle(1, {"a": [[-1]], "b": [[2]]})) <= 1e-8
        assert self.drift("rp2", FlatBundle(1, {"a": [[-1]]})) <= 1e-8

    def test_solid_tetrahedron_flag_route(self):
        item = corpus_get("tetra-solid")
        rng = np.random.default_rng(43)
        bundle = random_flat_bundle("tetra-solid", item.complex, rng, rank=2)
        spray = canonical_spray(item.complex)
        res = ft_torsion(item.complex, bundle, spray)
        refs = {d: b for d, b in res.harmonic_bases.items() if b.size}
        cx2, b2, s2, smap = barycentric_subdivide(item.complex, bundle, spray)
        res2 = ft_torsion(cx2, b2, s2, reference_cycles=smap.transport_reference(refs, 2))
        assert abs(res2.ft_metric.value - res.ft_metric.value) <= 1e-8 * res.ft_metric.value


def far_anchored_triangle():
    """Triangle a -> b -> c -> a, edge bc anchored at a with connectors ab and ca^-1."""
    cells = [Cell(v, 0, v) for v in "abc"] + [Cell("ab", 1, "a"), Cell("bc", 1, "a"), Cell("ca", 1, "c")]
    inc = [
        Incidence("ab", "b", 1, EdgePath((("ab", 1),), "a", "b")),
        Incidence("ab", "a", -1, EdgePath((), "a", "a")),
        Incidence("bc", "c", 1, EdgePath((("ca", -1),), "a", "c")),
        Incidence("bc", "b", -1, EdgePath((("ab", 1),), "a", "b")),
        Incidence("ca", "a", 1, EdgePath((("ca", 1),), "c", "a")),
        Incidence("ca", "c", -1, EdgePath((), "c", "c")),
    ]
    cx = ComplexDescription(cells, inc, "a", "far-triangle")
    cx.require_valid()
    return cx


class TestFarAnchoredEdges:
    @pytest.mark.parametrize("exact", [True, False])
    def test_two_rounds_keep_betti_numbers_and_the_value(self, exact):
        # rho(ab) rho(bc) = rho(ca)^-1, so the connectors agree with the edge's own transport
        cx = far_anchored_triangle()
        ab, ca = [[2, 1], [1, 1]], [[1, 1], [0, 1]]
        bundles = [
            FlatBundle(1, {"ab": [[2]], "bc": [[Fraction(1, 10)]], "ca": [[5]]}),
            FlatBundle(2, {"ab": ab, "bc": lx.matmul(lx.inverse(ab), lx.inverse(ca)), "ca": ca}),
        ]
        for bundle in bundles if exact else [b.as_float() for b in bundles]:
            spray = canonical_spray(cx)
            res = ft_torsion(cx, bundle, spray)
            assert res.betti == {0: bundle.rank, 1: bundle.rank}
            refs = {d: b for d, b in res.harmonic_bases.items() if b.size}
            c, b, s = cx, bundle, spray
            for _ in range(2):
                c, b, s, smap = barycentric_subdivide(c, b, s)
                refs = smap.transport_reference(refs, bundle.rank)
                got = ft_torsion(c, b, s, reference_cycles=refs)
                assert got.betti == res.betti
                assert abs(got.ft_metric.value - res.ft_metric.value) <= 1e-9 * res.ft_metric.value

    def test_connectors_that_disagree_with_the_edge_are_refused(self):
        # the boundary of bc reads rho(ab) and rho(ca) only; its halves would carry rho(bc) = 3
        cx = far_anchored_triangle()
        bundle = FlatBundle(1, {"ab": [[2]], "bc": [[3]], "ca": [[5]]})
        assert ft_torsion(cx, bundle, canonical_spray(cx)).betti == {0: 1, 1: 1}
        with pytest.raises(UnsupportedStructureError, match="'bc' is anchored off its endpoints"):
            barycentric_subdivide(cx, bundle, canonical_spray(cx))


class TestUnsupported:
    def test_dimension_four_rejected(self):
        cx = simplicial_complex("four", [(1, 2, 3, 4, 5)])
        spray = canonical_spray(cx)
        bundle = FlatBundle(1, {c.id: [[1]] for c in cx.cells_of_dim(1)})
        with pytest.raises(UnsupportedDimensionError):
            barycentric_subdivide(cx, bundle, spray)

    def test_lens_one_cell_model_rejected(self):
        item = corpus_get("lens-5-1")
        with pytest.raises(UnsupportedStructureError):
            barycentric_subdivide(item.complex, item.bundle, item.spray)

    def test_simplex_vertices_of_other_cells_rejected(self):
        item = corpus_get("tetra-solid")
        cx = item.complex
        simp = dict(cx.simplex_vertices)
        simp["nope"] = simp.pop(cx.cells[-1].id)
        bad = ComplexDescription(cx.cells, cx.incidences, cx.base_vertex, cx.name, simp)
        with pytest.raises(UnsupportedStructureError, match="simplex_vertices"):
            barycentric_subdivide(bad, item.bundle, item.spray)

    @pytest.mark.parametrize("name", ["torus", "tetra-solid"])
    def test_a_missing_step_of_the_transfer_is_a_typed_error(self, name):
        item = corpus_get(name)
        smap = barycentric_subdivide(item.complex, item.bundle, item.spray)[3]
        barycenters = {c: smap.target.cells[0].id for c in smap.cell_carriers.values()}
        with pytest.raises(UnsupportedStructureError, match="missing subdivision edge"):
            barycentric._transfer_spray(smap, item.spray, barycenters, {})


def _head_anchored(cx, edges):
    """cx with the named 1-cells anchored at their heads, connectors moved to match."""
    cells = [Cell(c.id, 1, cx.edge_endpoints(c.id)[1]) if c.id in edges else c for c in cx.cells]
    recs = []
    for r in cx.incidences:
        if r.coface in edges:
            t, h = cx.edge_endpoints(r.coface)
            steps = () if r.face == h else ((r.coface, -1),)
            r = Incidence(r.coface, r.face, r.coeff, EdgePath(steps, h, r.face))
        recs.append(r)
    return ComplexDescription(cells, recs, cx.base_vertex, cx.name)


def _pair_record(m):
    nums, den = m
    values = nums.astype("<f8").tobytes().hex() if nums.dtype.kind == "f" else nums.tolist()
    return [str(nums.dtype), list(nums.shape), values, den]


def _path_record(p):
    return [[list(s) for s in p.steps], p.src, p.dst]


def _subdivision_record(cx, bundle, spray, rounds):
    """Every output of each round, in order: cells, records with their connectors,
    edge pairs (float bits included), spray legs and the SubdivisionMap fields."""
    out = []
    for _ in range(rounds):
        cx, bundle, spray, smap = barycentric_subdivide(cx, bundle, spray)
        out.append([
            [[c.id, c.dim, c.anchor] for c in cx.cells],
            [[r.coface, r.face, r.coeff, _path_record(r.path)] for r in cx.incidences],
            [bundle.rank, bundle.exact, [[e, _pair_record(m)] for e, m in bundle._edge_pairs().items()]],
            [[c, _path_record(p)] for c, p in spray.legs],
            [smap.source.name, smap.target.name, list(smap.vertex_images.items()),
             list(smap.cell_carriers.items()), [[e, [list(s) for s in ss]] for e, ss in smap.step_images.items()],
             [[c, list(img.items())] for c, img in smap.chain_coefficients.items()]],
        ])
    return out


# sha256 of _subdivision_record at ranks 1-2, exact and float, per case; rounds 1-2
# (tetra-solid: 1); every non-lens corpus item, lens items take no subdivision
PINNED_SUBDIVISIONS = {
    "point": "64ada36261c68ed72b4dd62abfec915bcccff1b2657b90ed6d3272cb1e268ee6",
    "circle-1cell": "6bf76364ed8bfb7aaab70f8257a6714a8c4267608f621e4fd1b5ce6750c5d2be",
    "circle-2vertex": "236c449b880e292439418084218130e9e625d8b9b0f4a488f0143e43526a8e17",
    "circle-2vertex/e2-at-head": "283b3f89b71ac23ee7a9548eaf6d4eb8134d516a77228070ceea1eb15e6aeedf",
    "circle-2vertex/both-at-head": "9b9d63388a81e123324470812134e547acb41cedaed8e0e96d004a89e5369107",
    "torus": "2d8b166fcee87b368eacb097297e5d38e4a6ded960f9285f6fa9a92b24eb5de0",
    "klein": "d8773b9b5024bb134767279290c983c701d0c7c6e3c27afc9df2090c64fc0524",
    "rp2": "ce76e41baf3188d752f3eedc9a995aa99c0ef9a3d4e4e5b90234a8645c5482bc",
    "sphere": "273f20d727934e927d06b164e5d657db43e05efdbef1cd904916e784efa98969",
    "tetra-solid": "8f1d14b4555424fcf0e4f1a1a1b53a3c3579115858311504bd05370feeb30882",
}


@pytest.mark.parametrize("name", PINNED_SUBDIVISIONS)
def test_subdivision_outputs_are_pinned(name):
    """Cells, records, edge pairs, legs and maps after each round are those pinned.

    The "at-head" cases anchor edges at their heads, so a leg is carried
    from the head of its edge, not the tail.
    """
    item, _, at_head = name.partition("/")
    cx = corpus_get(item).complex
    if at_head:
        cx = _head_anchored(cx, {"e2"} if at_head == "e2-at-head" else {"e1", "e2"})
    rounds = 1 if item == "tetra-solid" else 2
    out = []
    for rank in (1, 2):
        bundle = random_flat_bundle(item, cx, np.random.default_rng(rank), rank=rank)
        for b in (bundle, bundle.as_float()):
            out.append(_subdivision_record(cx, b, canonical_spray(cx), rounds))
    text = json.dumps(out, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SUBDIVISIONS[name]
