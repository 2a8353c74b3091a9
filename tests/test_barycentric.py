import numpy as np
import pytest
from fractions import Fraction

from torsionlab import barycentric
from torsionlab import linalg_exact as lx
from torsionlab.barycentric import barycentric_subdivide
from torsionlab.complex_core import EdgePath, point_complex, simplicial_complex
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
