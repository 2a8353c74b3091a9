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

Both carry the spray by one rule, ``_transfer_spray``: a new cell's leg is
the leg of its carrier (the old cell whose interior holds it) pushed forward,
then at most two new edges, from the image of the carrier's anchor to the
carrier's barycenter and on to the new cell's anchor.  Each route names
those edges in a (vertex, vertex) -> step table as it builds them.
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
from .flat_bundle import FlatBundle, _flatness_walks, _require_flat_rows, _vouched


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

    The spray, flatness and far-anchor checks are skipped where
    ``bundle.last_assembly`` already holds them (``flat_bundle._vouched``), as in
    ``torsion_engine.assemble``.  The subdivided complex is validated once,
    by its Euler check.
    """
    complex_.require_valid()
    spray_ok, flat = _vouched(bundle, complex_, spray)
    if not spray_ok:
        validate_spray(complex_, spray)
    if not flat:
        cells, far, walks = _flatness_walks(complex_)
        _require_flat_rows(bundle, cells, far, bundle.transports(walks))
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
    """{steps: (transport, its inverse)}, one shared pair of (nums, den) objects per distinct
    walk, both stacks from one ``transports`` call, each pair over its own least denominator,
    int64 where it fits and read-only, as the edge pairs of a bundle are: the new bundle
    checks each once and inverts none."""
    distinct = list(dict.fromkeys(walks))
    fwd, inv = map(_own_denominators, bundle.transports(distinct, inverses=len(distinct)))
    return dict(zip(distinct, zip(fwd, inv)))


def _own_denominators(stack):
    """The rows of a scaled stack as read-only pairs, each over its own least denominator
    and int64 where it fits."""
    nums, den = stack
    if nums.dtype == object and lx._peak(nums) < 2**63:
        nums = nums.astype(np.int64)
    if nums.dtype == object or den >= 2**63:  # past int64: row by row
        rows = []
        for m in nums:
            m, d = lx._reduced(m, den)
            m = m.astype(np.int64) if lx._peak(m) < 2**63 else m
            m.flags.writeable = False
            rows.append((m, d))
        return rows
    dens = [den] * len(nums)
    if den > 1:
        g = np.gcd(np.gcd.reduce(nums, axis=(1, 2)), den)
        nums, dens = nums // g[:, None, None], (den // g).tolist()
    nums.flags.writeable = False
    return list(zip(nums, dens))


def _step(steps, a, b):
    if (a, b) not in steps:
        raise UnsupportedStructureError(f"missing subdivision edge {a!r} - {b!r}")
    return steps[a, b]


def _transfer_spray(smap, spray, barycenters, steps):
    """Each target cell's leg: its carrier's leg, transferred once per carrier, then
    at most two steps of ``steps``, from the carrier anchor's image to the carrier's
    barycenter and from there to the cell's anchor; none if the cell is anchored at
    the carrier anchor's image.  A 1-cell anchored off its endpoints has no edge
    from its anchor's image to its barycenter: its leg first goes on along its
    transferred tail connector, so the first step leaves from the tail."""
    src = smap.source
    far = {e.id: next(r.path for r in src.records_of(e.id) if r.coeff == -1)
           for e in src.cells_of_dim(1) if e.anchor not in src.edge_endpoints(e.id)}
    moved, legs = {}, []
    for c in smap.target.cells:
        carrier = smap.cell_carriers[c.id]
        if carrier not in moved:
            moved[carrier] = smap.path_transfer(spray.leg(carrier))
            if carrier in far:
                moved[carrier] = moved[carrier].compose(smap.path_transfer(far[carrier]))
        leg = moved[carrier]
        if leg.dst != c.anchor:
            bc = barycenters[carrier]
            inside = tuple(_step(steps, a, b) for a, b in ((leg.dst, bc), (bc, c.anchor)) if a != b)
            leg = EdgePath.of_normal(leg.steps + inside, leg.src, c.anchor)
        legs.append((c.id, leg))
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
    mats = {}  # half edges: the old edge's matrix and its inverse
    walks = {}  # other new edges: the attaching-walk prefix whose transport they carry
    step_images = {}
    steps = {}  # (vertex, vertex) -> a step between them, for the spray transfer
    carriers = {v: v for v in vertices}
    chain = {v: {v: 1} for v in vertices}
    for e in cx.cells_of_dim(1):
        t, h = cx.edge_endpoints(e.id)
        h0, h1, be = f"{e.id}:h0", f"{e.id}:h1", bary_v[e.id]
        edges[h0] = (t, be)
        edges[h1] = (be, h)
        steps[t, be], steps[be, t] = (h0, 1), (h0, -1)
        steps.setdefault((h, be), (h1, -1))  # a loop edge keeps (h0, 1) from its one vertex
        mats[h0] = (bundle.scaled(e.id), bundle.scaled(e.id, -1))
        walks[h1] = ()
        step_images[e.id] = ((h0, 1), (h1, 1))
        carriers[h0] = carriers[h1] = carriers[be] = e.id
        chain[e.id] = {h0: 1, h1: 1}

    faces = {}
    for f in cx.cells_of_dim(2):
        walk = cx.attaching_walk(f.id)
        bf = bary_v[f.id]
        carriers[bf] = f.id
        L = len(walk.steps)
        corner_at = [walk.src] + [cx.step_endpoints(step)[1] for step in walk.steps]
        spokes_r = [f"{f.id}:r{i}" for i in range(L)]
        spokes_s = [f"{f.id}:s{i + 1}" for i in range(L)]
        for i, (r_id, s_id) in enumerate(zip(spokes_r, spokes_s)):
            edges[r_id] = (bf, corner_at[i])
            walks[r_id] = walk.steps[:i]
            carriers[r_id] = f.id
            e, d = walk.steps[i]
            edges[s_id] = (bf, bary_v[e])
            walks[s_id] = walk.steps[: i + 1] if d == 1 else walks[r_id]
            carriers[s_id] = f.id
        steps[walk.src, bf] = (spokes_r[0], -1)
        chain[f.id] = {}
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
            chain[f.id][ta] = chain[f.id][tb] = 1

    target = cw_complex_from_words(
        f"{cx.name}-sub", new_vertices, edges, faces, cx.base_vertex
    )
    shared = _shared_transports(bundle, walks.values())
    pairs = {e: mats[e] if e in mats else shared[walks[e]] for e in edges}
    new_bundle = FlatBundle(bundle.rank, {e: m for e, (m, _) in pairs.items()}, bundle.exact,
                            bundle.reference_basis)
    new_bundle._seed_inverses({e: inv for e, (_, inv) in pairs.items()})

    smap = SubdivisionMap(
        source=cx,
        target=target,
        vertex_images={v: v for v in vertices},
        cell_carriers=carriers,
        step_images=step_images,
        chain_coefficients=chain,
    )

    return target, new_bundle, _transfer_spray(smap, spray, bary_v, steps), smap


# ---------------------------------------------------------------------------
# simplicial route (dimension <= 3): flag subdivision


def _subdivide_flags(cx, bundle, spray):
    simp = cx.simplex_vertices
    ids = list(simp)
    if set(ids) != {c.id for c in cx.cells}:
        raise UnsupportedStructureError("simplex_vertices must list the cells of the complex")

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
    steps, walks = {}, {}
    for e in target.cells_of_dim(1):
        u, v = target.simplex_vertices[e.id]
        steps[u, v], steps[v, u] = (e.id, 1), (e.id, -1)
        walks[e.id] = old_edge_path(anchor_of[bid_map[u]], anchor_of[bid_map[v]])
    shared = _shared_transports(bundle, walks.values())
    new_bundle = FlatBundle(bundle.rank, {e: shared[w][0] for e, w in walks.items()},
                            bundle.exact, bundle.reference_basis)
    new_bundle._seed_inverses({e: shared[w][1] for e, w in walks.items()})

    step_images = {}
    for e in cx.cells_of_dim(1):
        t, h = cx.edge_endpoints(e.id)
        step_images[e.id] = (_step(steps, bid(t), bid(e.id)), _step(steps, bid(e.id), bid(h)))

    smap = SubdivisionMap(
        source=cx,
        target=target,
        vertex_images=vertex_images,
        cell_carriers=carriers,
        step_images=step_images,
        chain_coefficients=_cone_chain_map(cx, target, bid),
    )

    return target, new_bundle, _transfer_spray(smap, spray, {c: bid(c) for c in ids}, steps), smap


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
