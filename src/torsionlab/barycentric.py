"""Barycentric subdivision carrying bundle and spray data forward.

Two routes share one interface:

* complexes of dimension <= 2 are subdivided through their attaching walks
  (works for non-regular one-vertex models like the standard torus);
* simplicial complexes up to dimension 3 are subdivided through the flag
  (face-poset chain) construction.

Both return the subdivided complex, the induced flat bundle, the transferred
spray, and a SubdivisionMap that also carries the degree-wise chain map used
to transport homology references.  The induced bundle refines transports: the
product over the pieces of an old edge equals the old matrix, and all
cell-interior edges carry prefix transports in the spray-compatible gauge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complex_core import (
    ComplexDescription,
    EdgePath,
    cw_complex_from_words,
    simplicial_complex,
)
from .errors import UnsupportedDimensionError, UnsupportedStructureError
from .euler_struct import Spray, validate_spray
from .flat_bundle import FlatBundle, require_flat


@dataclass
class SubdivisionMap:
    source: ComplexDescription
    target: ComplexDescription
    vertex_images: dict
    cell_carriers: dict  # target cell id -> source cell id
    step_images: dict  # source 1-cell id -> pair of target steps (for dir +1)
    chain_coefficients: dict  # source cell id -> {target cell id: +-1}

    def path_transfer(self, path):
        steps = []
        for e, d in path.steps:
            imgs = self.step_images[e]
            steps.extend(imgs if d == 1 else tuple((ee, -dd) for ee, dd in reversed(imgs)))
        src = self.vertex_images[path.src]
        dst = self.vertex_images[path.dst]
        return EdgePath(tuple(steps), src, dst)

    def chain_map_matrix(self, d, rank=1):
        """Twisted chain map C_d(source) -> C_d(target), row convention.

        Blocks are (sign * identity): the transferred spray legs make the
        frame-change factors trivial.
        """
        rows = self.source.cells_of_dim(d)
        cols = self.target.cells_of_dim(d)
        ci = {c.id: j for j, c in enumerate(cols)}
        m = np.zeros((rank * len(rows), rank * len(cols)))
        for i, c in enumerate(rows):
            for tgt, sign in self.chain_coefficients[c.id].items():
                j = ci[tgt]
                m[rank * i : rank * i + rank, rank * j : rank * j + rank] = (
                    sign * np.eye(rank)
                )
        return m

    def transport_reference(self, refs, rank=1):
        """Push degree-wise reference rows (default coordinates) forward."""
        out = {}
        for d, rows in refs.items():
            if rows is None or not len(rows):
                continue
            out[d] = np.asarray(rows, dtype=float) @ self.chain_map_matrix(d, rank)
        return out


def barycentric_subdivide(complex_, bundle, spray):
    """One round of barycentric subdivision of (complex, bundle, spray)."""
    complex_.require_valid()
    validate_spray(complex_, spray)
    require_flat(complex_, bundle)
    if complex_.dim > 3:
        raise UnsupportedDimensionError(
            f"subdivision supports dimension <= 3, got {complex_.dim}"
        )
    if complex_.dim <= 2:
        return _subdivide_walks(complex_, bundle, spray)
    if complex_.simplex_vertices:
        return _subdivide_flags(complex_, bundle, spray)
    raise UnsupportedStructureError(
        "3-complexes need simplicial structure for subdivision; attaching data "
        "of general 3-cells is not reconstructible from incidence records"
    )


# ---------------------------------------------------------------------------
# dimension <= 2: attaching-walk route


def _subdivide_walks(cx, bundle, spray):
    bary_v = {c.id: f"{c.id}:b" for c in cx.cells if c.dim >= 1}
    for b in bary_v.values():
        if cx.has_cell(b):
            raise UnsupportedStructureError(f"cell id {b!r} collides with a barycenter id")
    vertices = [c.id for c in cx.cells_of_dim(0)]
    new_vertices = vertices + sorted(bary_v.values())

    edges = {}
    mats = {}
    walks = {}  # prefix products of the attaching walks, as scaled pairs
    step_images = {}
    carriers = {v: v for v in vertices}
    chain = {v: {v: 1} for v in vertices}
    for e in cx.cells_of_dim(1):
        t, h = cx.edge_endpoints(e.id)
        h0, h1 = f"{e.id}:h0", f"{e.id}:h1"
        edges[h0] = (t, bary_v[e.id])
        edges[h1] = (bary_v[e.id], h)
        mats[h0] = bundle.scaled(e.id)
        mats[h1] = bundle.walk((), walks)
        step_images[e.id] = ((h0, 1), (h1, 1))
        carriers[h0] = carriers[h1] = carriers[bary_v[e.id]] = e.id
        chain[e.id] = {h0: 1, h1: 1}

    faces = {}
    face_anchor_spoke = {}
    for f in cx.cells_of_dim(2):
        walk = cx.attaching_walk(f.id)
        bf = bary_v[f.id]
        carriers[bf] = f.id
        L = len(walk.steps)
        corner_at = [walk.src]
        for step in walk.steps:
            corner_at.append(cx.step_endpoints(step)[1])
        spokes_r, spokes_s = [], []
        for i in range(L):
            r_id = f"{f.id}:r{i}"
            spokes_r.append(r_id)
            edges[r_id] = (bf, corner_at[i])
            mats[r_id] = bundle.walk(walk.steps[:i], walks)
            carriers[r_id] = f.id
            e, d = walk.steps[i]
            s_id = f"{f.id}:s{i + 1}"
            spokes_s.append(s_id)
            edges[s_id] = (bf, bary_v[e])
            mats[s_id] = bundle.walk(walk.steps[: i + 1], walks) if d == 1 else mats[r_id]
            carriers[s_id] = f.id
        face_anchor_spoke[f.id] = spokes_r[0]
        tri_ids = []
        for i in range(1, L + 1):
            e, d = walk.steps[i - 1]
            h0, h1 = f"{e}:h0", f"{e}:h1"
            r_prev, r_next, s_i = spokes_r[i - 1], spokes_r[i % L], spokes_s[i - 1]
            ta, tb = f"{f.id}:t{i}a", f"{f.id}:t{i}b"
            if d == 1:
                faces[ta] = [(r_prev, 1), (h0, 1), (s_i, -1)]
                faces[tb] = [(s_i, 1), (h1, 1), (r_next, -1)]
            else:
                faces[ta] = [(r_prev, 1), (h1, -1), (s_i, -1)]
                faces[tb] = [(s_i, 1), (h0, -1), (r_next, -1)]
            carriers[ta] = carriers[tb] = f.id
            tri_ids.extend([ta, tb])
        chain[f.id] = {t: 1 for t in tri_ids}

    target = cw_complex_from_words(
        f"{cx.name}-sub", new_vertices, edges, faces, cx.base_vertex
    )
    new_bundle = FlatBundle(bundle.rank, mats, bundle.exact, bundle.reference_basis)

    smap = SubdivisionMap(
        source=cx,
        target=target,
        vertex_images={v: v for v in vertices},
        cell_carriers=carriers,
        step_images=step_images,
        chain_coefficients=chain,
    )

    new_legs = []
    for c in target.cells:
        carrier = carriers[c.id]
        base = smap.path_transfer(spray.leg(carrier))
        internal = _internal_path_walks(cx, c, carrier, bary_v, face_anchor_spoke)
        new_legs.append((c.id, base.compose(internal)))
    new_spray = Spray(tuple(new_legs))

    if target.euler_characteristic() != cx.euler_characteristic():
        raise UnsupportedStructureError("subdivision changed the Euler characteristic")
    return target, new_bundle, new_spray, smap


def _internal_path_walks(cx, new_cell, carrier, bary_v, face_anchor_spoke):
    """Walk from the carrier-anchor image to the new cell's anchor, inside
    the closed carrier cell."""
    src = cx.cell(carrier).anchor
    dst = new_cell.anchor
    cdim = cx.cell(carrier).dim
    if cdim == 0:
        return EdgePath((), src, dst)
    if cdim == 1:
        # dispatch on the new cell itself: endpoint vertices may coincide
        # (loop edges), so the destination vertex alone is ambiguous
        t, h = cx.edge_endpoints(carrier)
        h0, h1 = f"{carrier}:h0", f"{carrier}:h1"
        bc = bary_v[carrier]
        from_tail = src == t
        if new_cell.id == h0:  # anchored at the tail
            return (
                EdgePath((), t, t)
                if from_tail
                else EdgePath(((h1, -1), (h0, -1)), h, t)
            )
        if new_cell.id in (h1, bc):  # anchored at the barycenter
            return (
                EdgePath(((h0, 1),), t, bc)
                if from_tail
                else EdgePath(((h1, -1),), h, bc)
            )
        raise UnsupportedStructureError(
            f"unexpected edge-carried cell {new_cell.id!r}"
        )
    # carrier is a 2-cell: route through the face barycenter via corner spoke 0
    r0 = face_anchor_spoke[carrier]
    bf = bary_v[carrier]
    to_bf = EdgePath(((r0, -1),), src, bf)
    if dst == bf:
        return to_bf
    if dst == src:
        return EdgePath((), src, src)
    raise UnsupportedStructureError(
        f"no internal route from {src!r} to {dst!r} inside {carrier!r}"
    )


# ---------------------------------------------------------------------------
# simplicial route (dimension <= 3): flag subdivision


def _subdivide_flags(cx, bundle, spray):
    simp = cx.simplex_vertices
    ids = list(simp)

    def bid(cell_id):
        return f"b.{cell_id}"

    by_cell_verts = {cid: frozenset(vs) for cid, vs in simp.items()}
    flags = []

    def grow(chain_ids):
        flags.append(tuple(chain_ids))
        smallest = chain_ids[0]
        for other in ids:
            if by_cell_verts[other] < by_cell_verts[smallest]:
                grow([other] + chain_ids)

    for cid in ids:
        grow([cid])
    bid_map = {bid(c): c for c in ids}
    flag_simplices = [tuple(bid(c) for c in fl) for fl in flags]
    target = simplicial_complex(f"{cx.name}-sub", flag_simplices, bid(cx.base_vertex))

    carriers = {}
    vertex_images = {c.id: bid(c.id) for c in cx.cells_of_dim(0)}
    for c in target.cells:
        tops = [bid_map[v] for v in target.simplex_vertices[c.id]]
        carriers[c.id] = max(tops, key=lambda t: (len(by_cell_verts[t]), str(t)))

    anchor_of = {cid: cx.cell(cid).anchor for cid in ids}

    def old_edge_path(u, v):
        if u == v:
            return EdgePath((), u, u)
        key = tuple(sorted((u, v), key=str))
        eid = "|".join(str(x) for x in key)
        if not cx.has_cell(eid):
            raise UnsupportedStructureError(f"missing old edge {eid!r}")
        return (
            EdgePath(((eid, 1),), key[0], key[1])
            if key[0] == u
            else EdgePath(((eid, -1),), key[1], key[0])
        )

    mats, walks = {}, {}
    for e in target.cells_of_dim(1):
        tt, hh = target.edge_endpoints(e.id)
        path = old_edge_path(anchor_of[bid_map[tt]], anchor_of[bid_map[hh]])
        mats[e.id] = bundle.walk(path.steps, walks)
    new_bundle = FlatBundle(bundle.rank, mats, bundle.exact, bundle.reference_basis)

    step_images = {}
    for e in cx.cells_of_dim(1):
        t, h = cx.edge_endpoints(e.id)
        step_images[e.id] = (
            _flag_edge_step(target, bid(t), bid(e.id)),
            _flag_edge_step(target, bid(e.id), bid(h)),
        )

    smap = SubdivisionMap(
        source=cx,
        target=target,
        vertex_images=vertex_images,
        cell_carriers=carriers,
        step_images=step_images,
        chain_coefficients=_cone_chain_map(cx, target, bid),
    )

    new_legs = []
    for c in target.cells:
        carrier = carriers[c.id]
        base = smap.path_transfer(spray.leg(carrier))
        internal = _internal_path_flags(target, c, carrier, bid, anchor_of)
        new_legs.append((c.id, base.compose(internal)))
    new_spray = Spray(tuple(new_legs))

    if target.euler_characteristic() != cx.euler_characteristic():
        raise UnsupportedStructureError("subdivision changed the Euler characteristic")
    return target, new_bundle, new_spray, smap


def _flag_edge_step(target, a, b):
    """Oriented step along the target edge joining barycenter vertices a, b."""
    key = tuple(sorted((a, b), key=str))
    eid = "|".join(str(x) for x in key)
    if not target.has_cell(eid):
        raise UnsupportedStructureError(f"missing subdivision edge {eid!r}")
    return (eid, 1) if key[0] == a else (eid, -1)


def _internal_path_flags(target, new_cell, carrier, bid, anchor_of):
    src = bid(anchor_of[carrier])
    dst = new_cell.anchor
    if src == dst:
        return EdgePath((), src, src)
    bc = bid(carrier)
    steps = []
    if src != bc:
        steps.append(_flag_edge_step(target, src, bc))
    if dst != bc:
        steps.append(_flag_edge_step(target, bc, dst))
    return EdgePath(tuple(steps), src, dst)


def _cone_chain_map(cx, target, bid):
    """Signs of the subdivision chain map by the cone rule Sd s = b_s * Sd(ds).

    The cone on an oriented flag simplex puts b_s first; sorting it into the
    target's vertex order costs (-1)^(number of its vertices before b_s).
    Each image is checked against d(Sd s) = Sd(d s) on the target's records.
    """
    chain = {v.id: {bid(v.id): 1} for v in cx.cells_of_dim(0)}
    for d in range(1, cx.dim + 1):
        for sigma, col in cx.boundary_columns(d).items():
            b = bid(sigma)
            image, want = {}, {}
            for tau, x in col.items():
                for rho, y in chain[tau].items():
                    want[rho] = want.get(rho, 0) + x * y
                    verts = target.simplex_vertices[rho]
                    cone = "|".join(sorted((b, *verts)))
                    if not target.has_cell(cone):
                        raise UnsupportedStructureError(f"missing subdivision simplex {cone!r}")
                    if abs(x * y) != 1:
                        raise UnsupportedStructureError(
                            f"subdivision chain coefficient {x * y} on {cone!r} is not a sign"
                        )
                    image[cone] = (-1) ** sum(v < b for v in verts) * x * y
            for cone, x in image.items():
                for rec in target.records_of(cone):
                    want[rec.face] = want.get(rec.face, 0) - x * rec.coeff
            if any(want.values()):
                raise UnsupportedStructureError(
                    f"inconsistent subdivision chain map over {sigma!r}"
                )
            chain[sigma] = image
    return chain
