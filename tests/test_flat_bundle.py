import math

import numpy as np
import pytest
from fractions import Fraction

from torsionlab import linalg_exact as lx
from torsionlab.complex_core import EdgePath
from torsionlab.corpus import corpus_get, random_flat_bundle
from torsionlab.errors import MissingEdgeMatrixError, NotFlatError, OpenPathError
from torsionlab.flat_bundle import (
    FlatBundle,
    check_flatness,
    gauge_normalize,
    kt_class,
    kt_evaluate,
    transport,
)


class TestTransport:
    def test_empty_path_is_identity(self):
        b = FlatBundle(2, {"e": [[1, 1], [0, 1]]})
        assert transport(b, EdgePath((), "v", "v")) == [[1, 0], [0, 1]]

    def test_edge_then_reverse_is_identity(self):
        b = FlatBundle(2, {"e": [[2, 1], [1, 1]]})
        p = EdgePath((("e", 1), ("e", -1)), "v", "v")
        assert transport(b, p) == [[1, 0], [0, 1]]

    def test_double_loop_squares(self):
        b = FlatBundle(1, {"e": [[3]]})
        p = EdgePath((("e", 1), ("e", 1)), "v", "v")
        assert transport(b, p) == [[Fraction(9)]]

    def test_missing_edge_matrix(self):
        b = FlatBundle(1, {"e": [[3]]})
        with pytest.raises(MissingEdgeMatrixError):
            transport(b, EdgePath((("f", 1),), "v", "v"))

    def test_functoriality_random(self):
        rng = np.random.default_rng(11)
        cx = corpus_get("torus").complex
        b = random_flat_bundle("torus", cx, rng, rank=2)
        lat = cx.h1_lattice()
        p = lat.representative_loop((1, 0))
        q = lat.representative_loop((0, 1))
        assert transport(b, p.compose(q)) == lx.matmul(transport(b, p), transport(b, q))


def one_at_a_time(bundle, steps, inverse=False):
    """The reference transport: one product per step from the identity, left to right
    (for inverses matrix(step reversed) . prefix), in Fractions or floats."""
    out = np.eye(bundle.rank, dtype=int).tolist() if bundle.exact else np.eye(bundle.rank)
    mul = lx.matmul if bundle.exact else np.matmul
    for e, d in steps:
        out = mul(bundle.matrix(e, -d), out) if inverse else mul(out, bundle.matrix(e, d))
    return out


def assert_rows_are_the_reference(bundle, paths, inverse=False):
    nums, den = bundle.transports(paths, inverse=inverse)
    assert nums.shape == (len(paths), bundle.rank, bundle.rank) and type(den) is int
    for i, steps in enumerate(paths):
        want = one_at_a_time(bundle, steps, inverse)
        if bundle.exact:
            assert lx.unscaled((nums[i], den)) == want
        else:  # bit for bit, the sign of a zero included
            assert den == 1 and nums[i].tobytes() == want.tobytes()


class TestTransports:
    A, B, AI, BI = ("a", 1), ("b", 1), ("a", -1), ("b", -1)
    PATHS = [
        (A, B, AI, BI), (A, B, AI), (A, B), (), (A, B, AI, BI), (B, B, B), (BI, A), (A,), (),
        (BI, BI, AI, B),
    ]

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize(
        "mats",
        [
            {"a": [[-1]], "b": [[2]]},  # klein: b^-1 has denominator 2
            {"a": [[2, 1], [1, 1]], "b": [[Fraction(1, 3), 0], [0, 3]]},
            {"a": [[0, Fraction(-2, 3)], [Fraction(2, 3), 0]], "b": [[-3, Fraction(-2, 3)], [1, 4]]},
        ],
    )
    def test_exact_rows_equal_one_at_a_time_products(self, mats, inverse):
        bundle = FlatBundle(len(mats["a"]), mats)
        assert bundle.exact
        assert_rows_are_the_reference(bundle, self.PATHS, inverse)
        for steps in self.PATHS:  # alone, with no shared prefix
            assert_rows_are_the_reference(bundle, [steps], inverse)

    @pytest.mark.parametrize("inverse", [False, True])
    def test_float_rows_are_bit_identical(self, inverse):
        rng = np.random.default_rng(4)
        mats = {"a": rng.normal(size=(3, 3)), "b": rng.normal(size=(3, 3))}
        mats["b"][0, 1] = -0.0  # I . M clears the sign of this zero
        bundle = FlatBundle(3, mats)
        assert not bundle.exact
        assert_rows_are_the_reference(bundle, self.PATHS, inverse)
        assert_rows_are_the_reference(bundle, [(self.B,)], inverse)
        nums, _ = bundle.transports([(self.B,)])
        assert math.copysign(1.0, nums[0, 0, 1]) == 1.0

    def test_empty_request_and_empty_paths(self):
        for bundle in (FlatBundle(2, {"a": [[1, 2], [0, 1]]}), FlatBundle(2, {"a": np.eye(2)})):
            nums, den = bundle.transports([])
            assert nums.shape == (0, 2, 2) and den == 1
            nums, den = bundle.transports([(), ()], inverse=True)
            assert np.array_equal(nums, [np.eye(2), np.eye(2)]) and den == 1

    def test_entries_past_int64_stay_exact(self):
        a, b = [[2**40, 1], [2**40 - 1, 1]], [[1, 0], [Fraction(1, 5), 1]]
        bundle = FlatBundle(2, {"a": a, "b": b})
        paths = [(self.A,) * 4, (self.A,) * 2 + (self.B,), (self.A, self.A, self.BI, self.A), ()]
        for inverse in (False, True):
            nums, den = bundle.transports(paths, inverse=inverse)
            assert nums.dtype == object and max(abs(x) for x in nums.ravel()) > 2**63
            assert_rows_are_the_reference(bundle, paths, inverse)

    def test_missing_edge_matrix(self):
        bundle = FlatBundle(1, {"a": [[3]]})
        with pytest.raises(MissingEdgeMatrixError):
            bundle.transports([(self.A,), (self.A, ("f", 1))])


class TestFlatness:
    def test_circle_any_matrix_passes(self):
        cx = corpus_get("circle-1cell").complex
        rep = check_flatness(cx, FlatBundle(2, {"e": [[1, 2], [3, 10]]}))
        assert rep.ok and rep.deviations == {}

    def test_commuting_torus_passes(self):
        cx = corpus_get("torus").complex
        rep = check_flatness(cx, FlatBundle(1, {"a": [[2]], "b": [[3]]}))
        assert rep.ok

    def test_noncommuting_torus_fails_with_named_cell(self):
        cx = corpus_get("torus").complex
        a = [[1, 1], [0, 1]]
        b = [[1, 0], [1, 1]]
        # the commutator of these unipotent matrices is not the identity
        comm = lx.matmul(
            lx.matmul(lx.fmat(a), lx.fmat(b)),
            lx.matmul(lx.inverse(lx.fmat(a)), lx.inverse(lx.fmat(b))),
        )
        assert comm != [[1, 0], [0, 1]]
        rep = check_flatness(cx, FlatBundle(2, {"a": a, "b": b}))
        assert not rep.ok
        assert rep.failing_cells() == ["F"]

    @pytest.mark.parametrize(
        "name,mats,dev",
        [
            ("torus", {"a": [[1, 1], [0, 1]], "b": [[1, 0], [1, 1]]}, 2.0),
            (
                "torus",
                {"a": [[1, Fraction(1, 3)], [0, 1]], "b": [[1, 0], [Fraction(1, 7), 1]]},
                0.049886621315192746,
            ),
            ("klein", {"a": [[2, 1], [1, 1]], "b": [[Fraction(1, 2), 0], [0, 5]]}, 13.0),
            ("torus", {"a": [[10**30, 1], [10**30 - 1, 1]], "b": [[3, 0], [0, 1]]}, 2e30),
        ],
    )
    def test_nonflat_exact_deviation_is_largest_entry(self, name, mats, dev):
        # the float of the largest |hol - I| entry of the Fraction holonomy
        cx = corpus_get(name).complex
        bundle = FlatBundle(2, mats)
        rep = check_flatness(cx, bundle)
        assert rep.mode == "exact" and rep.deviations == {"F": dev}
        hol = [[1, 0], [0, 1]]
        for e, d in cx.attaching_walk("F").steps:
            hol = lx.matmul(hol, bundle.matrix(e, d))
        rows = enumerate(hol)
        assert dev == max(abs(float(x - (i == j))) for i, r in rows for j, x in enumerate(r))

    def test_flat_exact_deviation_is_int_zero(self):
        cx = corpus_get("torus").complex
        bundle = FlatBundle(2, {"a": [[Fraction(1, 3), 0], [0, 3]], "b": [[2, 0], [0, 1]]})
        rep = check_flatness(cx, bundle)
        assert rep.ok and rep.deviations == {"F": 0} and type(rep.deviations["F"]) is int

    def test_float_mode_tolerance(self):
        cx = corpus_get("lens-5-1").complex
        rep = check_flatness(cx, corpus_get("lens-5-1").bundle)
        assert rep.mode == "float" and rep.ok


class TestKTEvaluate:
    def test_orthogonal_gives_zero(self):
        cx = corpus_get("circle-1cell").complex
        th = 0.7
        b = FlatBundle(
            2, {"e": np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])}
        )
        loop = EdgePath((("e", 1),), "v", "v")
        assert abs(kt_evaluate(b, loop)) <= 1e-12

    def test_diag_two_three_gives_log_six(self):
        b = FlatBundle(2, {"e": [[2, 0], [0, 3]]})
        loop = EdgePath((("e", 1),), "v", "v")
        assert abs(kt_evaluate(b, loop) - math.log(6)) <= 1e-12

    def test_commutator_loop_gives_zero(self):
        rng = np.random.default_rng(12)
        cx = corpus_get("torus").complex
        b = random_flat_bundle("torus", cx, rng, rank=2)
        word = EdgePath((("a", 1), ("b", 1), ("a", -1), ("b", -1)), "v", "v")
        assert abs(kt_evaluate(b, word)) <= 1e-12

    def test_open_path_rejected(self):
        b = FlatBundle(1, {"e1": [[2]], "e2": [[1]]})
        with pytest.raises(OpenPathError):
            kt_evaluate(b, EdgePath((("e1", 1),), "v1", "v2"))


class TestKTClass:
    def test_finite_h1_gives_zero_class(self):
        item = corpus_get("lens-5-1")
        kc = kt_class(item.complex, item.bundle)
        assert kc.is_zero and kc.torsion == (5,)

    def test_circle_two_gives_log_two(self):
        cx = corpus_get("circle-1cell").complex
        kc = kt_class(cx, FlatBundle(1, {"e": [[2]]}))
        assert len(kc.values) == 1
        assert abs(abs(kc.values[0]) - math.log(2)) <= 1e-12

    def test_torus_diagonal_values_match_generator_evaluation(self):
        cx = corpus_get("torus").complex
        b = FlatBundle(2, {"a": [[2, 0], [0, 1]], "b": [[1, 0], [0, 3]]})
        kc = kt_class(cx, b)
        lat = cx.h1_lattice()
        # oracle: evaluate log|det| on the generator loops directly
        want = [kt_evaluate(b, loop) for loop in lat.generator_loops()]
        assert np.allclose(kc.values, want, atol=1e-12)
        assert sorted(round(v, 10) for v in kc.values) == sorted(
            round(v, 10) for v in (math.log(2), math.log(3))
        )

    def test_nonflat_bundle_rejected(self):
        cx = corpus_get("torus").complex
        with pytest.raises(NotFlatError):
            kt_class(cx, FlatBundle(2, {"a": [[1, 1], [0, 1]], "b": [[1, 0], [1, 1]]}))

    def test_additivity(self):
        cx = corpus_get("torus").complex
        b = FlatBundle(1, {"a": [[2]], "b": [[3]]})
        kc = kt_class(cx, b)
        lat = cx.h1_lattice()
        loop = lat.representative_loop((2, -1))
        want = kc.evaluate((2, -1))
        assert abs(kt_evaluate(b, loop) - want) <= 1e-12


class TestGauge:
    def test_tree_edges_become_identity(self):
        rng = np.random.default_rng(13)
        cx = corpus_get("sphere").complex
        b = random_flat_bundle("sphere", cx, rng, rank=2)
        nb, gauges = gauge_normalize(cx, b)
        tree, _ = cx.spanning_tree()
        for e in tree:
            assert nb.edge_matrices[e] == [[1, 0], [0, 1]]

    def test_loop_transports_unchanged(self):
        rng = np.random.default_rng(14)
        cx = corpus_get("klein").complex
        b = random_flat_bundle("klein", cx, rng, rank=2)
        nb, _ = gauge_normalize(cx, b)
        lat = cx.h1_lattice()
        for coords in ((1, 0), (0, 1), (1, 2)):
            loop = lat.representative_loop(coords)
            assert transport(b, loop) == transport(nb, loop)


class TestExactness:
    def test_rational_entries_stay_exact(self):
        b = FlatBundle(1, {"e": [["2/3"]]})
        assert b.exact
        p = EdgePath((("e", 1), ("e", 1)), "v", "v")
        assert transport(b, p) == [[Fraction(4, 9)]]

    def test_float_entries_demote_to_float_mode(self):
        b = FlatBundle(1, {"e": [[0.5]]})
        assert not b.exact

    def test_inv_is_the_reverse_step(self):
        exact = FlatBundle(2, {"e": [["1/2", 1], [0, 3]]})
        assert exact.matrix("e", -1) == [
            [Fraction(2), Fraction(-2, 3)],
            [Fraction(0), Fraction(1, 3)],
        ]
        floats = FlatBundle(2, {"e": [[0.5, 1.0], [0.0, 3.0]]})
        assert np.allclose(floats.matrix("e", -1), [[2.0, -2 / 3], [0.0, 1 / 3]])

    def test_singularity_test_is_scale_free(self):
        b = FlatBundle(3, {"e": 1e-5 * np.eye(3)})
        assert not b.exact
        with pytest.raises(ValueError, match="singular"):
            FlatBundle(2, {"e": [[1.0, 2.0], [2.0, 4.0]]})
        with pytest.raises(ValueError, match="singular"):
            FlatBundle(2, {"e": [[1e-5, 2e-5], [2e-5, 4e-5]]})

    def test_rows_arrays_and_scaled_pairs_build_the_same_bundle(self):
        rows = [["1/2", 1], [0, 3]]
        exact = FlatBundle(2, {"e": lx.scaled(lx.fmat(rows))})
        assert exact.exact and exact.edge_matrices == FlatBundle(2, {"e": rows}).edge_matrices
        floats = FlatBundle(2, {"e": (np.array([[0.5, 1.0], [0.0, 3.0]]), 1)})
        assert not floats.exact
        assert np.array_equal(floats.matrix("e"), exact.as_float().matrix("e"))
        with pytest.raises(TypeError):
            FlatBundle(2, {"e": np.eye(2)}, exact=True)
        with pytest.raises(TypeError):
            FlatBundle(2, {"e": (np.eye(2), 1)}, exact=True)
        with pytest.raises(ValueError, match="singular"):
            FlatBundle(2, {"e": (np.array([[1, 2], [2, 4]]), 3)})

    @pytest.mark.parametrize(
        "rank, basis, words",
        [
            (1, [[0]], "singular"),
            (1, [[1, 0]], "not 1 x 1"),
            (1, [], "not 1 x 1"),
            (1, [[1], [2, 3]], "1 x 1 rows"),
            (1, [[float("nan")]], "finite"),
            (1, np.array([[np.inf]]), "finite"),
            (1, np.array([[0.0]]), "singular"),
            (2, [[1, 2], [2, 4]], "singular"),
            (2, [["1/3", "2/3"], [1, 2]], "singular"),
            (2, [[1e-5, 2e-5], [2e-5, 4e-5]], "singular"),
        ],
    )
    def test_bad_reference_basis_rejected_at_construction(self, rank, basis, words):
        edges = {"e": np.eye(rank).astype(int).tolist()}
        with pytest.raises(ValueError, match=f"reference_basis: .*{words}"):
            FlatBundle(rank, edges, reference_basis=basis)
        with pytest.raises(ValueError, match="reference_basis"):
            FlatBundle(rank, edges).with_reference_basis(basis)

    def test_stacked_check_names_the_first_failing_edge(self):
        good, zero_row = np.eye(2), np.array([[0.0, 0.0], [1.0, 2.0]])
        flat, inf = np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([[np.inf, 0.0], [0.0, 1.0]])
        for mats, words in [
            ({"a": good, "b": zero_row, "c": inf}, "edge 'b': matrix is singular"),
            ({"a": good, "c": inf, "b": flat}, "edge 'c': matrix entries must be finite"),
            ({"a": good, "b": np.eye(3), "c": flat}, "edge 'b': matrix is not 2 x 2"),
        ]:
            with pytest.raises(ValueError, match=words):
                FlatBundle(2, mats)
        assert list(lx.singular_float(np.stack([good, zero_row, flat, 1e-300 * good]))) == [
            False, True, True, False,
        ]

    def test_non_finite_edge_matrix_rejected(self):
        with pytest.raises(ValueError, match="edge 'e': matrix entries must be finite"):
            FlatBundle(1, {"e": [[float("inf")]]})

    def test_good_reference_basis_is_kept(self):
        exact = FlatBundle(2, {"e": [[1, 0], [0, 1]]}, reference_basis=[["1/2", 0], [0, 3]])
        assert exact.reference_basis == [[Fraction(1, 2), 0], [0, 3]]
        floats = FlatBundle(1, {"e": [[2.0]]}, reference_basis=np.array([[1e-5]]))
        assert floats.reference_basis.tolist() == [[1e-5]]

    def test_views_are_read_only(self):
        b = FlatBundle(2, {"e": [[0.5, 1.0], [0.0, 3.0]]})
        for m in (b.matrix("e"), b.matrix("e", -1), b.edge_matrices["e"]):
            with pytest.raises(ValueError):
                m[0, 0] = 7.0
