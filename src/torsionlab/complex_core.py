"""Finite cell complexes with oriented incidence data.

A complex is a list of cells (id, dimension, anchor vertex) plus incidence
records.  Each record connects a coface to one face *occurrence* and carries
an integer coefficient and a connector path in the 1-skeleton from the
coface's anchor to the face's anchor.  The integer boundary matrix is the sum
of record coefficients per (coface, face) pair; the per-occurrence paths are
what twisted assembly consumes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import combinations

from . import linalg_exact as lx
from .errors import InvalidComplexError, PathComplexMismatchError


@dataclass(frozen=True, slots=True)
class EdgePath:
    """Walk in the 1-skeleton: ordered (edge id, direction) steps."""

    steps: tuple = ()
    src: object = None
    dst: object = None

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple((e, int(d)) for e, d in self.steps))
        if not self.steps and self.dst is None:
            object.__setattr__(self, "dst", self.src)

    @classmethod
    def of_normal(cls, steps, src, dst):
        """Path from a tuple of (edge, int) steps, as __post_init__ leaves them; not re-normalized."""
        path = object.__new__(cls)
        object.__setattr__(path, "steps", steps)
        object.__setattr__(path, "src", src)
        object.__setattr__(path, "dst", dst)
        return path

    @property
    def is_empty(self):
        return not self.steps

    @property
    def is_closed(self):
        return self.src == self.dst

    def reverse(self):
        return EdgePath.of_normal(
            tuple((e, -d) for e, d in reversed(self.steps)), self.dst, self.src
        )

    def compose(self, other):
        if self.dst != other.src:
            raise PathComplexMismatchError(
                f"cannot compose path ending at {self.dst!r} with path starting at {other.src!r}"
            )
        return EdgePath.of_normal(self.steps + other.steps, self.src, other.dst)

    def __mul__(self, other):
        return self.compose(other)

    def repeat(self, n):
        out = EdgePath((), self.src, self.src)
        base = self if n >= 0 else self.reverse()
        for _ in range(abs(n)):
            out = out.compose(base)
        return out


@dataclass(frozen=True, slots=True)
class Cell:
    id: object
    dim: int
    anchor: object


@dataclass(frozen=True, slots=True)
class Incidence:
    coface: object
    face: object
    coeff: int
    path: EdgePath


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    def add(self, code, message):
        self.violations.append((code, message))

    @property
    def ok(self):
        return not self.violations

    def summary(self):
        if self.ok:
            return "ok"
        return "; ".join(f"[{code}] {msg}" for code, msg in self.violations)


class ComplexDescription:
    """Immutable finite complex with oriented incidence data and a base vertex."""

    def __init__(self, cells, incidences, base_vertex, name="", simplex_vertices=None):
        self.cells = tuple(
            c if isinstance(c, Cell) else Cell(c[0], int(c[1]), c[2]) for c in cells
        )
        self.incidences = tuple(
            i if isinstance(i, Incidence) else Incidence(i[0], i[1], int(i[2]), i[3])
            for i in incidences
        )
        self.base_vertex = base_vertex
        self.name = name
        # optional simplicial structure: cell id -> ordered vertex tuple
        self.simplex_vertices = dict(simplex_vertices) if simplex_vertices else None
        self._cell_by_id = {c.id: c for c in self.cells}
        self._by_dim = {}
        for c in self.cells:
            self._by_dim.setdefault(c.dim, []).append(c)
        for cs in self._by_dim.values():
            cs.sort(key=lambda c: str(c.id))
        self._incident_by_coface = {}
        for rec in self.incidences:
            self._incident_by_coface.setdefault(rec.coface, []).append(rec)
        self._validation = None
        self._walks = {}
        self._h1 = None
        self._tree = None
        self._endpoints = {}
        self._reached = {}  # (steps, start) -> where path_is_valid found the steps lead
        self._divisors = {}

    # -- basic structure ----------------------------------------------------

    @property
    def dim(self):
        return max(self._by_dim) if self._by_dim else 0

    def cells_of_dim(self, d):
        return list(self._by_dim.get(d, []))

    def cell(self, cell_id):
        return self._cell_by_id[cell_id]

    def has_cell(self, cell_id):
        return cell_id in self._cell_by_id

    def records_of(self, coface_id):
        return list(self._incident_by_coface.get(coface_id, []))

    def edge_endpoints(self, edge_id):
        """(tail, head) of a 1-cell, from its signed vertex records; kept once found."""
        if edge_id in self._endpoints:
            return self._endpoints[edge_id]
        if getattr(self._cell_by_id.get(edge_id), "dim", None) != 1:
            raise PathComplexMismatchError(f"{edge_id!r} is not a 1-cell")
        tail = head = None
        for rec in self._incident_by_coface.get(edge_id, ()):
            if rec.coeff == 1:
                head = rec.face
            elif rec.coeff == -1:
                tail = rec.face
        if tail is None or head is None:
            raise PathComplexMismatchError(
                f"1-cell {edge_id!r} lacks a (+1, -1) vertex record pair"
            )
        self._endpoints[edge_id] = (tail, head)
        return tail, head

    def step_endpoints(self, step):
        e, d = step
        tail, head = self.edge_endpoints(e)
        return (tail, head) if d == 1 else (head, tail)

    def path_is_valid(self, path):
        """Whether path is a walk in the 1-skeleton; False on an invalid complex.  Each step
        tuple is walked once per start, one lookup a step in validate()'s edge endpoints."""
        key = (path.steps, path.src)
        if key not in self._reached:
            at, ends = path.src, self._endpoints if self.validate().ok else {}
            for e, d in path.steps:
                tail, head = ends.get(e, ((), ()))[:: 1 if d == 1 else -1]
                at = head if tail == at else ()  # () is no vertex: off the skeleton for good
            self._reached[key] = at
        return self._reached[key] == path.dst

    def path_chain(self, path):
        """Integer 1-chain of a walk, as {edge id: coefficient}."""
        out = {}
        for e, d in path.steps:
            out[e] = out.get(e, 0) + d
        return {e: c for e, c in out.items() if c != 0}

    # -- validation ----------------------------------------------------------

    def validate(self):
        if self._validation is not None:
            return self._validation
        rep = ValidationReport()
        ids = [c.id for c in self.cells]
        if len(set(ids)) != len(ids):
            rep.add("duplicate-id", "cell ids are not unique")
        dim = {c.id: c.dim for c in self.cells}  # the last cell of an id wins, as in cell()
        anchor = {c.id: c.anchor for c in self.cells}
        if dim.get(self.base_vertex) != 0:
            rep.add("base-vertex", f"base vertex {self.base_vertex!r} is not a 0-cell")
        for c in self.cells:
            if c.dim < 0:
                rep.add("dimension", f"cell {c.id!r} has negative dimension")
            if c.dim == 0:
                if c.anchor != c.id:
                    rep.add("anchor", f"0-cell {c.id!r} must anchor itself")
            elif dim.get(c.anchor) != 0:
                rep.add("anchor", f"cell {c.id!r} anchor {c.anchor!r} is not a 0-cell")
        # 1-cells need well-defined endpoints before connector checks mean anything
        ends, bad_edges = {}, []
        for c in self._by_dim.get(1, ()):
            recs = self._incident_by_coface.get(c.id, ())
            heads = [r.face for r in recs if r.coeff == 1 and dim.get(r.face) == 0]
            tails = [r.face for r in recs if r.coeff == -1 and dim.get(r.face) == 0]
            if len(heads) != 1 or len(tails) != 1 or len(recs) != 2:
                bad_edges.append(c.id)
            else:
                ends[c.id] = (tails[0], heads[0])
        # one sweep over the records; connector findings are reported after the endpoints
        connectors = []
        for rec in self.incidences:
            dc, df = dim.get(rec.coface), dim.get(rec.face)
            if dc is None or df is None:
                rep.add("incidence", f"incidence {rec.coface!r}->{rec.face!r} names unknown cells")
                continue
            if dc != df + 1:
                rep.add(
                    "incidence-dim",
                    f"incidence {rec.coface!r}->{rec.face!r} connects dim {dc} to dim {df}",
                )
            if rec.coeff == 0:
                rep.add("incidence-coeff", f"incidence {rec.coface!r}->{rec.face!r} has coefficient 0")
            if bad_edges or dc == 0:
                continue
            a_from, a_to = anchor[rec.coface], anchor[rec.face]
            path, at = rec.path, a_from
            if path.src == a_from and path.dst == a_to:
                for e, d in path.steps:
                    if dim.get(e) != 1:
                        break
                    t, h = ends[e] if d == 1 else ends[e][::-1]
                    if t != at:
                        break
                    at = h
                else:
                    if at == a_to:
                        continue
            connectors.append(
                f"incidence {rec.coface!r}->{rec.face!r} connector is not a walk {a_from!r} -> {a_to!r}"
            )
        for e in bad_edges:
            rep.add("edge-endpoints", f"1-cell {e!r} needs exactly one +1 and one -1 vertex record")
        if not bad_edges:
            for msg in connectors:
                rep.add("connector", msg)
            self._endpoints.update(ends)
            if not self._skeleton_connected():
                rep.add("connectivity", "1-skeleton is not connected")
        # integer boundary-of-boundary, composed through the sparse columns;
        # reported in (face, coface) order
        upper = self.boundary_columns(1)
        for d in range(2, self.dim + 1):
            lower, upper = upper, self.boundary_columns(d)
            face_index = {c.id: i for i, c in enumerate(self.cells_of_dim(d - 2))}
            bad = []
            for j, (cof, col) in enumerate(upper.items()):
                acc = {}
                for tau, x in col.items():
                    for f, y in lower[tau].items():
                        acc[f] = acc.get(f, 0) + x * y
                bad += [(face_index[f], j, f, cof, x) for f, x in acc.items() if x]
            for _, _, f, cof, x in sorted(bad):
                rep.add("boundary-squared", f"d(d({cof!r})) has coefficient {x} on {f!r}")
        self._validation = rep
        return rep

    def require_valid(self):
        rep = self.validate()
        if not rep.ok:
            raise InvalidComplexError(rep)

    def _skeleton_connected(self):
        verts = {c.id for c in self.cells_of_dim(0)}
        if self.base_vertex not in verts:
            return False
        adj = {v: set() for v in verts}
        for c in self.cells_of_dim(1):
            try:
                t, h = self.edge_endpoints(c.id)
            except PathComplexMismatchError:
                return False
            adj[t].add(h)
            adj[h].add(t)
        seen = {self.base_vertex}
        stack = [self.base_vertex]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen == verts

    # -- integer chain complex ----------------------------------------------

    def boundary_matrix_int(self, d):
        """Integer boundary matrix, rows (d-1)-cells, columns d-cells."""
        rows = self.cells_of_dim(d - 1)
        cols = self.cells_of_dim(d)
        ri = {c.id: i for i, c in enumerate(rows)}
        ci = {c.id: j for j, c in enumerate(cols)}
        m = [[0] * len(cols) for _ in rows]
        for rec in self.incidences:
            if rec.coface in ci and rec.face in ri:
                m[ri[rec.face]][ci[rec.coface]] += rec.coeff
        return m

    def boundary_columns(self, d):
        """{d-cell id: {(d-1)-cell id: coefficient}}: record sums, zeros dropped."""
        faces = {c.id for c in self.cells_of_dim(d - 1)}
        out = {}
        for c in self.cells_of_dim(d):
            col = {}
            for rec in self._incident_by_coface.get(c.id, ()):
                if rec.face in faces:
                    col[rec.face] = col.get(rec.face, 0) + rec.coeff
            out[c.id] = {f: x for f, x in col.items() if x}
        return out

    def euler_characteristic(self):
        self.require_valid()
        return sum((-1) ** d * len(cs) for d, cs in self._by_dim.items())

    def integral_homology(self, degree):
        """(betti, torsion coefficients) of H_degree over the integers."""
        self.require_valid()
        n = len(self.cells_of_dim(degree))
        if n == 0:
            return 0, []
        up = self._boundary_divisors(degree + 1)
        betti = n - len(self._boundary_divisors(degree)) - len(up)
        return betti, sorted(x for x in up if x > 1)

    def _boundary_divisors(self, d):
        """Nonzero invariant factors of the integer boundary matrix of degree d.

        Sparse elimination: a +-1 entry clears its row by unimodular column
        operations, then leaves with its row and column as one factor 1.  The
        residual without unit entries, usually empty, goes to Smith normal form.
        """
        if d in self._divisors:
            return self._divisors[d]
        cols, rows = self.boundary_columns(d), {}  # row -> {column: None}
        for c, col in cols.items():
            for f in col:
                rows.setdefault(f, {})[c] = None
        divisors, todo = [], list(cols)
        while todo:
            c = todo.pop()
            unit = [f for f, x in cols.get(c, {}).items() if x in (1, -1)]
            if not unit:
                continue
            piv = min(unit, key=lambda f: len(rows[f]))  # least fill-in
            col = cols.pop(c)
            for f in col:
                del rows[f][c]
            s = col.pop(piv)
            for c2 in rows.pop(piv):
                col2 = cols[c2]
                q = col2.pop(piv) * s
                for f, x in col.items():
                    col2[f] = col2.get(f, 0) - q * x
                    rows[f][c2] = None
                    if not col2[f]:
                        del col2[f], rows[f][c2]
                todo.append(c2)
            divisors.append(1)
        residual = [col for col in cols.values() if col]
        if residual:
            faces = list({f: None for col in residual for f in col})
            snf = lx.smith_normal_form([[col.get(f, 0) for col in residual] for f in faces])[1]
            divisors += [snf[i][i] for i in range(min(len(faces), len(residual))) if snf[i][i]]
        self._divisors[d] = divisors
        return divisors

    # -- spanning tree and H1 machinery --------------------------------------

    def spanning_tree(self):
        """Deterministic spanning tree grown from the base vertex: each step adds
        the lowest-index edge with exactly one endpoint in the tree.

        Candidates wait in a heap of edge indices, pushed as their first
        endpoint joins; an edge popped with both endpoints in stays out for good.
        """
        if self._tree is not None:
            return self._tree
        self.require_valid()
        edges = [(e.id, *self.edge_endpoints(e.id)) for e in self.cells_of_dim(1)]
        at = {}  # vertex -> indices of its edges
        for i, (_, t, h) in enumerate(edges):
            at.setdefault(t, []).append(i)
            at.setdefault(h, []).append(i)
        parent = {self.base_vertex: None}  # vertex -> (edge, dir, previous vertex)
        heap = list(at.get(self.base_vertex, ()))  # ascending, so already a heap
        while heap:
            e, t, h = edges[heapq.heappop(heap)]
            if (t in parent) != (h in parent):
                v, step = (h, (e, 1, t)) if t in parent else (t, (e, -1, h))
                parent[v] = step
                for i in at[v]:
                    heapq.heappush(heap, i)
        self._tree = ({step[0] for step in parent.values() if step}, parent)
        return self._tree

    def tree_path(self, vertex):
        """EdgePath from the base vertex to `vertex` inside the spanning tree."""
        _, parent = self.spanning_tree()
        steps = []
        v = vertex
        while parent[v] is not None:
            e, d, prev = parent[v]
            steps.append((e, d))
            v = prev
        steps.reverse()
        return EdgePath(tuple(steps), self.base_vertex, vertex)

    def fundamental_loop(self, edge_id):
        """Based loop through a non-tree edge: tree path, edge, tree path back."""
        t, h = self.edge_endpoints(edge_id)
        mid = EdgePath(((edge_id, 1),), t, h)
        return self.tree_path(t).compose(mid).compose(self.tree_path(h).reverse())

    def h1_lattice(self):
        if self._h1 is None:
            self._h1 = H1Lattice(self)
        return self._h1

    def attaching_walk(self, face_id):
        """Reconstruct the attaching walk of a 2-cell from its records.

        Records are placed by connector length: a +1 record with prefix p sits
        at position len(p)+1, a -1 record with connector q at position len(q).
        Every connector must equal the walk prefix it claims to be.
        """
        if face_id in self._walks:
            return self._walks[face_id]
        cell = self.cell(face_id)
        if cell.dim != 2:
            raise PathComplexMismatchError(f"{face_id!r} is not a 2-cell")
        recs = self.records_of(face_id)
        slots = {}
        for rec in recs:
            if abs(rec.coeff) != 1:
                raise PathComplexMismatchError(
                    f"2-cell {face_id!r} has a record with |coeff| != 1; no attaching walk"
                )
            pos = len(rec.path.steps) + 1 if rec.coeff == 1 else len(rec.path.steps)
            if pos in slots:
                raise PathComplexMismatchError(
                    f"2-cell {face_id!r} records do not form a single walk"
                )
            slots[pos] = rec
        walk = EdgePath((), cell.anchor, cell.anchor)
        for pos in range(1, len(recs) + 1):
            if pos not in slots:
                raise PathComplexMismatchError(
                    f"2-cell {face_id!r} records do not form a single walk"
                )
            rec = slots[pos]
            step = (rec.face, rec.coeff)
            prefix = walk
            claimed = rec.path if rec.coeff == 1 else EdgePath(
                rec.path.steps[:-1], rec.path.src
            )
            if claimed.steps != prefix.steps:
                raise PathComplexMismatchError(
                    f"2-cell {face_id!r} connector at position {pos} is not the walk prefix"
                )
            if rec.coeff == -1 and rec.path.steps[-1:] != ((rec.face, -1),):
                raise PathComplexMismatchError(
                    f"2-cell {face_id!r} reversed record must end with its own edge"
                )
            s, t = self.step_endpoints(step)
            if prefix.dst != s:
                raise PathComplexMismatchError(f"2-cell {face_id!r} walk is not head-to-tail")
            walk = EdgePath(prefix.steps + (step,), prefix.src, t)
        if walk.dst != cell.anchor:
            raise PathComplexMismatchError(f"2-cell {face_id!r} walk does not close at its anchor")
        self._walks[face_id] = walk
        return walk


class H1Lattice:
    """H_1(M; Z) in Smith normal form coordinates, with representative loops.

    Coordinates are (torsion coords..., free coords...); torsion coordinate i
    is reduced mod its coefficient.
    """

    def __init__(self, complex_):
        complex_.require_valid()
        self.complex = complex_
        edges = complex_.cells_of_dim(1)
        self.edge_index = {c.id: i for i, c in enumerate(edges)}
        ne = len(edges)
        # U1 d1 V1 = D1 with rank rk: the cycles are spanned by V1[:, rk:] and
        # a cycle z has coordinates (V1^-1 z)[rk:]
        _, d1, v1, _, self._v1inv = lx.smith_normal_form(complex_.boundary_matrix_int(1))
        self._rk = sum(1 for i in range(min(len(d1), ne)) if d1[i][i])
        self._kernel_cols = [[row[j] for row in v1] for j in range(self._rk, ne)]
        r = ne - self._rk
        x_cols = [self._kernel_coords(col) for col in complex_.boundary_columns(2).values()]
        if r and x_cols:
            u, d, _, uinv, _ = lx.smith_normal_form([list(row) for row in zip(*x_cols)])
            diag = [d[i][i] for i in range(min(r, len(x_cols)))]
        else:
            u = uinv = [[int(i == j) for j in range(r)] for i in range(r)]
            diag = []
        diag = diag + [0] * (r - len(diag))
        self._u, self._uinv = u, uinv
        # coordinate slots: drop divisor-1 rows, keep torsion then free
        self.torsion = [diag[i] for i in range(r) if diag[i] > 1]
        self._torsion_rows = [i for i in range(r) if diag[i] > 1]
        self._free_rows = [i for i in range(r) if diag[i] == 0]
        self.rank = len(self._free_rows)

    @property
    def n_coords(self):
        return len(self.torsion) + self.rank

    def zero(self):
        return tuple([0] * self.n_coords)

    def reduce(self, coords):
        coords = list(coords)
        if len(coords) != self.n_coords:
            raise ValueError("wrong coordinate length")
        for i, c in enumerate(self.torsion):
            coords[i] %= c
        return tuple(coords)

    def add(self, a, b):
        return self.reduce([x + y for x, y in zip(a, b)])

    def _kernel_coords(self, chain):
        """Coordinates of an integer 1-cycle {edge: coeff} in the cycle basis."""
        nz = [(self.edge_index[e], x) for e, x in chain.items()]
        y = [sum(row[i] * x for i, x in nz) for row in self._v1inv]
        if any(y[: self._rk]):
            raise lx.SingularMatrixError("vector outside lattice")
        return y[self._rk :]

    def class_of_chain(self, chain):
        """H1 coordinates of an integer 1-cycle given as {edge: coeff}."""
        w = self._kernel_coords(chain)
        y = [sum(self._u[i][j] * w[j] for j in range(len(w))) for i in range(len(w))]
        coords = [y[i] for i in self._torsion_rows] + [y[i] for i in self._free_rows]
        return self.reduce(coords)

    def class_of_loop(self, path):
        if not path.is_closed:
            raise PathComplexMismatchError("path is not closed")
        return self.class_of_chain(self.complex.path_chain(path))

    def generator_cycle(self, slot):
        """Integer cycle (edge vector) of the slot-th SNF generator."""
        rows = (self._torsion_rows + self._free_rows)[slot]
        r = len(self._uinv)
        w = [self._uinv[i][rows] for i in range(r)]
        ne = len(self.edge_index)
        return [
            sum(self._kernel_cols[j][i] * w[j] for j in range(r)) for i in range(ne)
        ]

    def loop_of_cycle(self, z):
        """Based loop whose 1-chain equals the cycle z exactly.

        Decomposes z over fundamental cycles of the spanning tree; the
        concatenated fundamental loops reproduce z on the nose.
        """
        cx = self.complex
        tree, _ = cx.spanning_tree()
        loop = EdgePath((), cx.base_vertex, cx.base_vertex)
        edges = cx.cells_of_dim(1)
        for e in edges:
            if e.id in tree:
                continue
            coeff = z[self.edge_index[e.id]]
            if coeff:
                loop = loop.compose(cx.fundamental_loop(e.id).repeat(coeff))
        return loop

    def representative_loop(self, coords):
        coords = self.reduce(coords)
        ne = len(self.edge_index)
        z = [0] * ne
        for slot, c in enumerate(coords):
            if c:
                g = self.generator_cycle(slot)
                z = [zi + c * gi for zi, gi in zip(z, g)]
        return self.loop_of_cycle(z)

    def generator_loops(self):
        return [
            self.loop_of_cycle(self.generator_cycle(s)) for s in range(self.n_coords)
        ]


# ---------------------------------------------------------------------------
# module-level operation names


def validate(complex_):
    return complex_.validate()


def euler_characteristic(complex_):
    return complex_.euler_characteristic()


def integral_homology(complex_, degree):
    return complex_.integral_homology(degree)


# ---------------------------------------------------------------------------
# constructors


def point_complex(name="point", vertex="m"):
    return ComplexDescription([Cell(vertex, 0, vertex)], [], vertex, name)


def cw_complex_from_words(name, vertices, edges, faces, base_vertex):
    """Build a 2-complex from attaching words.

    vertices: iterable of ids.  edges: {id: (tail, head)}.
    faces: {id: [(edge, dir), ...]} with the walk starting (and closing) at the
    face's anchor, which is the walk's first vertex.  Each face record carries
    the walk prefix up to its edge's tail (the edge's anchor) as connector.
    """
    cells = [Cell(v, 0, v) for v in vertices]
    incidences = []
    for e, (t, h) in edges.items():
        cells.append(Cell(e, 1, t))
        incidences.append(Incidence(e, h, 1, EdgePath.of_normal(((e, 1),), t, h)))
        incidences.append(Incidence(e, t, -1, EdgePath.of_normal((), t, t)))
    for f, word in faces.items():
        if not word:
            raise PathComplexMismatchError(f"face {f!r} has an empty attaching word")
        prefix, anchor = (), None
        for e, d in word:
            if e not in edges:
                raise PathComplexMismatchError(f"face {f!r} word names unknown edge {e!r}")
            s, t = edges[e] if d == 1 else reversed(edges[e])
            if anchor is None:
                anchor = at = s
            if s != at:
                raise PathComplexMismatchError(f"face {f!r} word is not head-to-tail")
            if d == 1:
                conn = EdgePath.of_normal(prefix, anchor, s)
            else:
                conn = EdgePath.of_normal(prefix + ((e, -1),), anchor, t)
            incidences.append(Incidence(f, e, d, conn))
            prefix += ((e, int(d)),)
            at = t
        if at != anchor:
            raise PathComplexMismatchError(f"face {f!r} word does not close")
        cells.append(Cell(f, 2, anchor))
    return ComplexDescription(cells, incidences, base_vertex, name)


def simplicial_complex(name, simplices, base_vertex=None):
    """Build a complex from simplices given as vertex tuples.

    Vertices are ordered by id inside each simplex, which fixes orientations.
    All faces are generated automatically.
    """
    simps = set()
    for s in simplices:
        s = tuple(sorted(set(s), key=str))
        if s not in simps:  # a simplex already in comes with all its faces
            for k in range(1, len(s) + 1):
                simps.update(combinations(s, k))
    order = sorted(simps, key=lambda s: (len(s), [str(v) for v in s]))
    if base_vertex is None:
        base_vertex = order[0][0]
    sid = {s: s[0] if len(s) == 1 else "|".join(map(str, s)) for s in order}
    path = EdgePath.of_normal
    stay = {s[0]: path((), s[0], s[0]) for s in order if len(s) == 1}  # shared empty walks

    cells, edge_records, records = [], [], []
    for s in order:
        cid, d, v = sid[s], len(s) - 1, s[0]
        cells.append(Cell(cid, d, v))
        if d == 1:
            edge_records.append(Incidence(cid, s[1], 1, path(((cid, 1),), v, s[1])))
            edge_records.append(Incidence(cid, v, -1, stay[v]))
        elif d == 2:
            # attaching walk v0 -> v1 -> v2 -> v0; records carry prefix connectors
            e01, e12, e02 = sid[s[:2]], sid[s[1:]], sid[(v, s[2])]
            records.append(Incidence(cid, e01, 1, stay[v]))
            records.append(Incidence(cid, e12, 1, path(((e01, 1),), v, s[1])))
            walk = ((e01, 1), (e12, 1), (e02, -1))
            records.append(Incidence(cid, e02, -1, path(walk, v, v)))
        elif d >= 3:
            # boundary faces with alternating signs; connector between anchors
            first = path(((sid[s[:2]], 1),), v, s[1])
            for omit in range(d + 1):
                face = sid[s[:omit] + s[omit + 1 :]]
                records.append(Incidence(cid, face, (-1) ** omit, stay[v] if omit else first))
    simplex_vertices = {sid[s]: s for s in order}
    return ComplexDescription(cells, edge_records + records, base_vertex, name, simplex_vertices)
