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
from itertools import combinations

import numpy as np

from . import linalg_exact as lx
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
            steps.extend(imgs if d == 1 else ((ee, -dd) for ee, dd in reversed(imgs)))
        src = self.vertex_images[path.src]
        dst = self.vertex_images[path.dst]
        return EdgePath.of_normal(tuple(steps), src, dst)

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
        """Push degree-wise reference rows (default coordinates) forward.

        Equal to ``rows @ chain_map_matrix(d, rank)`` without laying that
        matrix out: each source cell's k columns are added, signed, into the
        columns of its image cells.
        """
        out = {}
        for d, rows in refs.items():
            if rows is None or not len(rows):
                continue
            rows = np.asarray(rows, dtype=float)
            sources = self.source.cells_of_dim(d)
            if rows.shape[-1] != rank * len(sources):
                raise ValueError(f"degree-{d} reference rows need {rank * len(sources)} columns")
            col = {c.id: j for j, c in enumerate(self.target.cells_of_dim(d))}
            pairs = [(i, col[t], x) for i, c in enumerate(sources)
                     for t, x in self.chain_coefficients[c.id].items()]
            src, tgt, sign = np.array(pairs, dtype=int).reshape(-1, 3).T
            k = np.arange(rank)
            out[d] = np.zeros(rows.shape[:-1] + (rank * len(col),))
            np.add.at(out[d], (..., (rank * tgt[:, None] + k).ravel()),
                      rows[..., (rank * src[:, None] + k).ravel()] * np.repeat(sign, rank))
        return out


def barycentric_subdivide(complex_, bundle, spray):
    """One round of barycentric subdivision of (complex, bundle, spray).

    The spray and flatness checks are skipped where ``bundle.last_assembly``
    already holds them, as in ``torsion_engine.assemble``: the spray for the
    same complex (by identity) and an equal spray, flatness for the same
    complex.  The subdivided complex is validated once, by its Euler check.
    """
    complex_.require_valid()
    last = bundle.last_assembly or (None, None)
    if last[0] is not complex_ or last[1] != spray:
        validate_spray(complex_, spray)
    if last[0] is not complex_:
        require_flat(complex_, bundle)
    if complex_.dim > 3:
        raise UnsupportedDimensionError(
            f"subdivision supports dimension <= 3, got {complex_.dim}"
        )
    if complex_.dim <= 2:
        out = _subdivide_walks(complex_, bundle, spray)
    elif complex_.simplex_vertices:
        out = _subdivide_flags(complex_, bundle, spray)
    else:
        raise UnsupportedStructureError(
            "3-complexes need simplicial structure for subdivision; attaching data "
            "of general 3-cells is not reconstructible from incidence records"
        )
    if out[0].euler_characteristic() != complex_.euler_characteristic():
        raise UnsupportedStructureError("subdivision changed the Euler characteristic")
    return out


def _shared_transports(bundle, walks):
    """{steps: transport}, one shared (nums, den) object per distinct walk, each over its own
    least denominator, as the edge pairs of a bundle are: the new bundle checks each once."""
    distinct = list(dict.fromkeys(walks))
    nums, den = bundle.transports(distinct)
    return {w: lx._reduced(m, den) for w, m in zip(distinct, nums)}


def _transfer_spray(smap, spray, internal):
    """Each target cell's leg: its carrier's leg, transferred once per carrier,
    then ``internal(cell, carrier)``, a walk inside the carrier."""
    moved, legs = {}, []
    for c in smap.target.cells:
        carrier = smap.cell_carriers[c.id]
        if carrier not in moved:
            moved[carrier] = smap.path_transfer(spray.leg(carrier))
        legs.append((c.id, moved[carrier].compose(internal(c, carrier))))
    return Spray(tuple(legs))


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
    mats = {}  # half edges: the old edge's matrix
    walks = {}  # other new edges: the attaching-walk prefix whose transport they carry
    step_images = {}
    carriers = {v: v for v in vertices}
    chain = {v: {v: 1} for v in vertices}
    for e in cx.cells_of_dim(1):
        t, h = cx.edge_endpoints(e.id)
        h0, h1 = f"{e.id}:h0", f"{e.id}:h1"
        edges[h0] = (t, bary_v[e.id])
        edges[h1] = (bary_v[e.id], h)
        mats[h0] = bundle.scaled(e.id)
        walks[h1] = ()
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
            walks[r_id] = walk.steps[:i]
            carriers[r_id] = f.id
            e, d = walk.steps[i]
            s_id = f"{f.id}:s{i + 1}"
            spokes_s.append(s_id)
            edges[s_id] = (bf, bary_v[e])
            walks[s_id] = walk.steps[: i + 1] if d == 1 else walks[r_id]
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
    shared = _shared_transports(bundle, walks.values())
    mats = {e: mats[e] if e in mats else shared[walks[e]] for e in edges}
    new_bundle = FlatBundle(bundle.rank, mats, bundle.exact, bundle.reference_basis)

    smap = SubdivisionMap(
        source=cx,
        target=target,
        vertex_images={v: v for v in vertices},
        cell_carriers=carriers,
        step_images=step_images,
        chain_coefficients=chain,
    )

    new_spray = _transfer_spray(
        smap, spray, lambda c, carrier: _internal_path_walks(cx, c, carrier, bary_v, face_anchor_spoke)
    )
    return target, new_bundle, new_spray, smap


def _internal_path_walks(cx, new_cell, carrier, bary_v, face_anchor_spoke):
    """Walk from the carrier-anchor image to the new cell's anchor, inside
    the closed carrier cell."""
    src = cx.cell(carrier).anchor
    dst = new_cell.anchor
    cdim = cx.cell(carrier).dim
    if cdim == 0:
        return EdgePath.of_normal((), src, dst)
    if cdim == 1:
        # dispatch on the new cell itself: endpoint vertices may coincide
        # (loop edges), so the destination vertex alone is ambiguous
        t, h = cx.edge_endpoints(carrier)
        h0, h1 = f"{carrier}:h0", f"{carrier}:h1"
        bc = bary_v[carrier]
        from_tail = src == t
        if new_cell.id == h0:  # anchored at the tail
            return (
                EdgePath.of_normal((), t, t)
                if from_tail
                else EdgePath.of_normal(((h1, -1), (h0, -1)), h, t)
            )
        if new_cell.id in (h1, bc):  # anchored at the barycenter
            return (
                EdgePath.of_normal(((h0, 1),), t, bc)
                if from_tail
                else EdgePath.of_normal(((h1, -1),), h, bc)
            )
        raise UnsupportedStructureError(
            f"unexpected edge-carried cell {new_cell.id!r}"
        )
    # carrier is a 2-cell: route through the face barycenter via corner spoke 0
    r0 = face_anchor_spoke[carrier]
    bf = bary_v[carrier]
    to_bf = EdgePath.of_normal(((r0, -1),), src, bf)
    if dst == bf:
        return to_bf
    if dst == src:
        return EdgePath.of_normal((), src, src)
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

    # flags ending at a cell: the cell alone, or a flag ending at one of its
    # proper faces followed by the cell; faces come before their cofaces
    cell_of = {frozenset(vs): cid for cid, vs in simp.items()}
    flags_to = {}  # cell -> flags ending at it, as barycenter tuples
    for cid in sorted(ids, key=lambda c: len(simp[c])):
        vs, b = simp[cid], (bid(cid),)
        subs = (frozenset(f) for k in range(1, len(vs)) for f in combinations(vs, k))
        faces = [cell_of[f] for f in subs if f in cell_of]
        flags_to[cid] = [b] + [fl + b for f in faces for fl in flags_to[f]]
    bid_map = {bid(c): c for c in ids}
    # longest first, so the builder meets each sub-flag after a flag that holds it
    flag_simplices = [fl for fls in reversed(flags_to.values()) for fl in reversed(fls)]
    target = simplicial_complex(f"{cx.name}-sub", flag_simplices, bid(cx.base_vertex))

    # a flag simplex is carried by the top of its chain, the face with most vertices
    size = {b: len(simp[c]) for b, c in bid_map.items()}
    vertex_images = {c.id: bid(c.id) for c in cx.cells_of_dim(0)}
    carriers = {
        sid: bid_map[max(vs, key=size.__getitem__)] for sid, vs in target.simplex_vertices.items()
    }

    anchor_of = {cid: cx.cell(cid).anchor for cid in ids}

    def old_edge_path(u, v):
        if u == v:
            return ()
        key = tuple(sorted((u, v), key=str))
        eid = "|".join(str(x) for x in key)
        if not cx.has_cell(eid):
            raise UnsupportedStructureError(f"missing old edge {eid!r}")
        return ((eid, 1 if key[0] == u else -1),)

    # each new edge: its oriented steps by barycenter pair, and the walk
    # between the anchors of the two cells it joins
    step, walks = {}, {}
    for e in target.cells_of_dim(1):
        u, v = target.simplex_vertices[e.id]
        step[u, v], step[v, u] = (e.id, 1), (e.id, -1)
        walks[e.id] = old_edge_path(anchor_of[bid_map[u]], anchor_of[bid_map[v]])
    shared = _shared_transports(bundle, walks.values())
    mats = {e: shared[w] for e, w in walks.items()}
    new_bundle = FlatBundle(bundle.rank, mats, bundle.exact, bundle.reference_basis)

    def edge_step(a, b):
        if (a, b) not in step:
            raise UnsupportedStructureError(f"missing subdivision edge {a!r} - {b!r}")
        return step[a, b]

    step_images = {}
    for e in cx.cells_of_dim(1):
        t, h = cx.edge_endpoints(e.id)
        step_images[e.id] = (edge_step(bid(t), bid(e.id)), edge_step(bid(e.id), bid(h)))

    smap = SubdivisionMap(
        source=cx,
        target=target,
        vertex_images=vertex_images,
        cell_carriers=carriers,
        step_images=step_images,
        chain_coefficients=_cone_chain_map(cx, target, bid),
    )

    def internal(new_cell, carrier):
        """Walk from the carrier anchor's image to the new cell's anchor through b.carrier."""
        src, dst, bc = bid(anchor_of[carrier]), new_cell.anchor, bid(carrier)
        if src == dst:
            return EdgePath.of_normal((), src, src)
        steps = []
        if src != bc:
            steps.append(edge_step(src, bc))
        if dst != bc:
            steps.append(edge_step(bc, dst))
        return EdgePath.of_normal(tuple(steps), src, dst)

    return target, new_bundle, _transfer_spray(smap, spray, internal), smap


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
