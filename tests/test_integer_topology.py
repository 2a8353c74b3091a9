"""Integer topology against dense rational references.

The subdivision chain map (cone rule) and the H1 lattice (read from Smith
forms and their inverses) are compared with test-local copies of the earlier
implementations, which solved dense Fraction systems instead.
"""

from fractions import Fraction

import pytest

from torsionlab import linalg_exact as lx
from torsionlab.barycentric import _cone_chain_map, _subdivide_flags, barycentric_subdivide
from torsionlab.complex_core import ComplexDescription, Incidence, simplicial_complex
from torsionlab.corpus import corpus_get, corpus_list
from torsionlab.errors import UnsupportedStructureError
from torsionlab.euler_struct import canonical_spray
from torsionlab.flat_bundle import FlatBundle

# ---------------------------------------------------------------------------
# dense references


def rational_solve(a, b):
    """Solve a x = b over Q by row echelon form; raises if inconsistent.

    Free unknowns are set to zero, so the answer is the solution when it is
    unique.
    """
    c = len(a[0]) if a else 0
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    pivots, row = [], 0
    for col in range(c):
        piv = next((i for i in range(row, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        m[row] = [x / m[row][col] for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[row])]
        pivots.append(col)
        row += 1
    if any(m[i][c] for i in range(row, len(m))):
        raise lx.SingularMatrixError("inconsistent system")
    x = [Fraction(0)] * c
    for i, col in enumerate(pivots):
        x[col] = m[i][c]
    return x


def solved_chain_coefficients(cx, smap):
    """Subdivision chain map by one rational solve per old cell.

    For each old d-cell sigma, solve d(x) = Sd(d sigma) over the target
    d-cells it carries.  Rows that are zero in the whole system are left out;
    they constrain nothing.
    """
    target = smap.target
    chain = {v: {img: 1} for v, img in smap.vertex_images.items()}
    tops = {}
    for c in target.cells:
        tops.setdefault((smap.cell_carriers[c.id], c.dim), []).append(c.id)
    for d in range(1, cx.dim + 1):
        b_old = cx.boundary_matrix_int(d)
        prev_old = cx.cells_of_dim(d - 1)
        for j, sigma in enumerate(cx.cells_of_dim(d)):
            support = sorted(tops[(sigma.id, d)], key=str)
            rhs = {}
            for i, tau in enumerate(prev_old):
                for tgt, sgn in chain[tau.id].items():
                    rhs[tgt] = rhs.get(tgt, 0) + b_old[i][j] * sgn
            cols = []
            for fl in support:
                col = {}
                for rec in target.records_of(fl):
                    col[rec.face] = col.get(rec.face, 0) + rec.coeff
                cols.append(col)
            rows = {f for col in cols for f in col} | {f for f, x in rhs.items() if x}
            rows = sorted(rows, key=str)
            sol = rational_solve(
                [[col.get(f, 0) for col in cols] for f in rows], [rhs.get(f, 0) for f in rows]
            )
            assert all(v.denominator == 1 and abs(v) <= 1 for v in sol)
            chain[sigma.id] = {fl: int(v) for fl, v in zip(support, sol) if v}
    return chain


def int_kernel_basis(a):
    """Saturated integer kernel of a, as columns, from V of its Smith form."""
    r = len(a)
    c = len(a[0]) if r else 0
    if c == 0:
        return []
    if r == 0 or all(x == 0 for row in a for x in row):
        return [[int(i == j) for i in range(c)] for j in range(c)]
    _, d, v, _, _ = lx.smith_normal_form(a)
    rk = sum(1 for i in range(min(r, c)) if d[i][i] != 0)
    return [[v[i][j] for i in range(c)] for j in range(rk, c)]


def int_solve_in_basis(basis_cols, z):
    """Integer coordinates of z in a lattice basis, by a rational solve."""
    if not basis_cols:
        if any(z):
            raise lx.SingularMatrixError("vector outside lattice")
        return []
    x = rational_solve([[col[i] for col in basis_cols] for i in range(len(z))], z)
    if any(v.denominator != 1 for v in x):
        raise lx.SingularMatrixError("vector outside integer lattice")
    out = [int(v) for v in x]
    recon = [sum(col[i] * w for col, w in zip(basis_cols, out)) for i in range(len(z))]
    if recon != list(z):
        raise lx.SingularMatrixError("vector outside lattice")
    return out


def int_inverse(a):
    inv = lx.inverse(lx.fmat(a))
    assert all(x.denominator == 1 for row in inv for x in row)
    return [[int(x) for x in row] for row in inv]


class DenseH1:
    """H1 data by rational solves in the kernel basis and a rational inverse."""

    def __init__(self, cx):
        ne = len(cx.cells_of_dim(1))
        self.edge_index = {c.id: i for i, c in enumerate(cx.cells_of_dim(1))}
        b1, b2 = cx.boundary_matrix_int(1), cx.boundary_matrix_int(2)
        self.kernel = kernel = int_kernel_basis(b1) if ne else []
        r = len(kernel)
        if b2 and b2[0] and r:
            x = [int_solve_in_basis(kernel, [row[j] for row in b2]) for j in range(len(b2[0]))]
            u, d, _, _, _ = lx.smith_normal_form([[xj[i] for xj in x] for i in range(r)])
            diag = [d[i][i] for i in range(min(r, len(d[0])))]
        else:
            u = [[int(i == j) for j in range(r)] for i in range(r)]
            diag = []
        diag += [0] * (r - len(diag))
        self.u, self.uinv = u, (int_inverse(u) if r else [])
        self.torsion = [x for x in diag if x > 1]
        self.slots = [i for i in range(r) if diag[i] > 1] + [i for i in range(r) if diag[i] == 0]
        self.rank = diag.count(0)

    def class_of_chain(self, chain):
        z = [0] * len(self.edge_index)
        for e, c in chain.items():
            z[self.edge_index[e]] = c
        w = int_solve_in_basis(self.kernel, z) if self.kernel else []
        y = [sum(a * b for a, b in zip(row, w)) for row in self.u]
        coords = [y[i] for i in self.slots]
        for i, t in enumerate(self.torsion):
            coords[i] %= t
        return tuple(coords)

    def generator_cycle(self, slot):
        w = [row[self.slots[slot]] for row in self.uinv]
        return [sum(col[i] * x for col, x in zip(self.kernel, w)) for i in range(len(self.edge_index))]


# ---------------------------------------------------------------------------
# complexes


def trivial_triple(cx):
    return cx, FlatBundle(1, {c.id: [[1]] for c in cx.cells_of_dim(1)}), canonical_spray(cx)


def two_tetrahedra_and_triangle():
    return simplicial_complex("two-tetra", [(1, 2, 3, 4), (2, 3, 4, 5), (4, 5, 6)])


def flag_rounds(cx, rounds):
    """(source, SubdivisionMap) for each flag subdivision round."""
    triple, out = trivial_triple(cx), []
    for _ in range(rounds):
        cx2, b2, s2, smap = _subdivide_flags(*triple)
        out.append((triple[0], smap))
        triple = (cx2, b2, s2)
    return out


class TestConeRule:
    @pytest.mark.parametrize(
        "build, rounds",
        [
            (lambda: corpus_get("tetra-solid").complex, 2),
            (lambda: corpus_get("sphere").complex, 2),
            (two_tetrahedra_and_triangle, 1),
        ],
        ids=["tetra-solid", "sphere", "two-tetra"],
    )
    def test_matches_rational_solve(self, build, rounds):
        for r, (cx, smap) in enumerate(flag_rounds(build(), rounds)):
            assert smap.chain_coefficients == solved_chain_coefficients(cx, smap), r

    def test_broken_target_rejected(self):
        [(cx, smap)] = flag_rounds(corpus_get("tetra-solid").complex, 1)
        tets = smap.target.cells_of_dim(3)
        shrunk = simplicial_complex(
            "shrunk", [smap.target.simplex_vertices[c.id] for c in tets[1:]]
        )
        with pytest.raises(UnsupportedStructureError, match="missing subdivision simplex"):
            _cone_chain_map(cx, shrunk, lambda c: f"b.{c}")
        # a boundary triangle with its records negated no longer matches its
        # vertex order
        tri = next(
            c.id for c in smap.target.cells_of_dim(2)
            if cx.cell(smap.cell_carriers[c.id]).dim == 2
        )
        flipped = ComplexDescription(
            smap.target.cells,
            [Incidence(r.coface, r.face, -r.coeff, r.path) if r.coface == tri else r
             for r in smap.target.incidences],
            smap.target.base_vertex,
            "flipped",
            smap.target.simplex_vertices,
        )
        with pytest.raises(UnsupportedStructureError, match="inconsistent subdivision chain map"):
            _cone_chain_map(cx, flipped, lambda c: f"b.{c}")


def h1_complex(name):
    """A corpus complex, or with suffix @1 its first barycentric subdivision."""
    item = corpus_get(name.removesuffix("@1"))
    if name.endswith("@1"):
        return barycentric_subdivide(item.complex, item.bundle, item.spray)[0]
    return item.complex


class TestH1AgainstDenseSolve:
    @pytest.mark.parametrize("name", corpus_list() + ["torus@1", "klein@1", "rp2@1"])
    def test_same_lattice_and_coordinates(self, name):
        cx = h1_complex(name)
        lat, ref = cx.h1_lattice(), DenseH1(cx)
        assert lat._kernel_cols == ref.kernel
        assert (lat._u, lat._uinv) == (ref.u, ref.uinv)
        assert (lat.torsion, lat.rank) == (ref.torsion, ref.rank)
        edges = [c.id for c in cx.cells_of_dim(1)]

        def chain(vec):
            return {e: x for e, x in zip(edges, vec) if x}

        cycles = list(ref.kernel)
        cycles.append([sum((-1) ** j * (j + 2) * col[i] for j, col in enumerate(ref.kernel))
                       for i in range(len(edges))])
        cycles += [[row[j] for row in cx.boundary_matrix_int(2)]
                   for j in range(len(cx.cells_of_dim(2)))]
        for z in cycles:
            assert lat.class_of_chain(chain(z)) == ref.class_of_chain(chain(z))
        for slot in range(lat.n_coords):
            assert lat.generator_cycle(slot) == ref.generator_cycle(slot)
        if len(cx.cells_of_dim(0)) > 1:  # a single edge is then not a cycle
            tail = next(e for e in edges if len(set(cx.edge_endpoints(e))) == 2)
            for h1 in (lat, ref):
                with pytest.raises(lx.SingularMatrixError):
                    h1.class_of_chain({tail: 1})
