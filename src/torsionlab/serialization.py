"""JSON formats for complexes, bundles, sprays, and reports.

Complex files carry exact integers only; floats in structural fields are
rejected on load.  Bundle matrices accept numbers or exact rational strings
"p/q"; loading with exact=True rejects float entries.  Floats, numpy's included, are
written as the shortest repr that reads back to the same double.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import numpy as np

from .complex_core import Cell, ComplexDescription, EdgePath, Incidence
from .errors import TorsionLabError
from .euler_struct import Spray
from .flat_bundle import FlatBundle


class FormatError(TorsionLabError):
    pass


_ID = (str, int)  # the JSON types of a cell id
_KINDS = {dict: "an object", list: "an array", int: "an exact integer", _ID: "a string or integer id"}


def _require(x, kind, where):
    """x if it is a JSON value of the given kind (a key of _KINDS), else FormatError."""
    if isinstance(x, bool) or not isinstance(x, kind):
        raise FormatError(f"{where}: expected {_KINDS[kind]}, got {x!r:.60}")
    return x


def _field(obj, key, kind, owner):
    """obj[key], checked by _require as "owner.key"; FormatError naming owner and key if absent."""
    if key not in obj:
        raise FormatError(f"{owner}: missing key {key!r}")
    return _require(obj[key], kind, f"{owner}.{key}")


def path_to_jsonable(path):
    return [{"edge": e, "dir": d} for e, d in path.steps]


def path_from_jsonable(data, src, dst, where="path"):
    steps = []
    for item in _require(data, list, where):
        if not (isinstance(item, dict) and "edge" in item and "dir" in item):
            raise FormatError(f'{where}: a step is an {{"edge", "dir"}} object, got {item!r}')
        _require(item["edge"], _ID, where)
        d = _require(item["dir"], int, where)
        if d not in (1, -1):
            raise FormatError(f"{where}: step direction must be +-1")
        steps.append((item["edge"], d))
    return EdgePath(tuple(steps), src, dst)


def complex_to_jsonable(cx):
    out = {
        "name": cx.name,
        "base_vertex": cx.base_vertex,
        "cells": [
            {"id": c.id, "dim": c.dim, "anchor": c.anchor}
            for c in sorted(cx.cells, key=lambda c: (c.dim, str(c.id)))
        ],
        "incidences": [
            {
                "coface": r.coface,
                "face": r.face,
                "coeff": r.coeff,
                "path": path_to_jsonable(r.path),
            }
            for r in cx.incidences
        ],
    }
    if cx.simplex_vertices:
        out["simplex_vertices"] = [
            {"cell": cid, "vertices": list(vs)} for cid, vs in cx.simplex_vertices.items()
        ]
    return out


def complex_from_jsonable(data):
    cells = []
    anchors = {}
    for c in _field(_require(data, dict, "complex"), "cells", list, "complex"):
        cid = _field(_require(c, dict, "cells"), "id", _ID, "cells")
        anchors[cid] = _field(c, "anchor", _ID, "cells")
        cells.append(Cell(cid, _field(c, "dim", int, "cells"), anchors[cid]))
    incidences = []
    for r in _field(data, "incidences", list, "complex"):
        coface = _field(_require(r, dict, "incidences"), "coface", _ID, "incidences")
        face = _field(r, "face", _ID, "incidences")
        coeff = _field(r, "coeff", int, "incidences")
        path = _field(r, "path", list, "incidences")
        path = path_from_jsonable(path, anchors.get(coface), anchors.get(face))
        incidences.append(Incidence(coface, face, coeff, path))
    simplex_vertices = {}
    for sv in _require(data.get("simplex_vertices", []), list, "simplex_vertices"):
        cid = _field(_require(sv, dict, "simplex_vertices"), "cell", _ID, "simplex_vertices")
        vertices = _field(sv, "vertices", list, "simplex_vertices")
        simplex_vertices[cid] = tuple(_require(v, _ID, "simplex_vertices.vertices") for v in vertices)
    base = _field(data, "base_vertex", _ID, "complex")
    return ComplexDescription(cells, incidences, base, data.get("name", ""), simplex_vertices)


def _entry_to_jsonable(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, (float, np.floating)):
        return float(x)
    if isinstance(x, int):
        return x
    raise FormatError(f"cannot serialize matrix entry {x!r}")


def bundle_to_jsonable(bundle):
    mats = bundle.edge_matrices
    edges = [
        {"edge": e, "matrix": [_entry_to_jsonable(x) for row in mats[e] for x in row]}
        for e in sorted(mats, key=str)
    ]
    out = {"rank": bundle.rank, "edges": edges}
    if bundle.reference_basis is not None:
        out["reference_basis"] = [[_entry_to_jsonable(x) for x in row] for row in bundle.reference_basis]
    return out


def _entry_from_jsonable(x, where):
    """A matrix entry: a float as is, an integer or "p/q" string as a Fraction."""
    if isinstance(x, float):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise FormatError(f"{where}: bad entry {x!r}")


def bundle_from_jsonable(data, exact=None):
    rank = _field(_require(data, dict, "bundle"), "rank", int, "bundle")
    mats = {}
    for item in _field(data, "edges", list, "bundle"):
        e = _field(_require(item, dict, "edges"), "edge", _ID, "edges")
        where = f"edge {e!r}"
        if e in mats:
            raise FormatError(f"{where}: listed twice")
        flat = item.get("matrix")  # absent: the list check below names the key
        if not isinstance(flat, list) or len(flat) != rank * rank:
            raise FormatError(f"{where}: matrix needs a list of {rank * rank} entries")
        entries = [_entry_from_jsonable(x, where) for x in flat]
        floats = [x for x in entries if isinstance(x, float)]
        if floats and exact:
            raise FormatError(f"{where}: float entry {floats[0]!r} rejected in exact mode")
        mats[e] = [entries[rank * i : rank * i + rank] for i in range(rank)]
    rb = data.get("reference_basis")
    if rb is not None:
        if not (isinstance(rb, list) and all(isinstance(row, list) for row in rb)):
            raise FormatError("reference_basis: expected a list of rows")
        rb = [[_entry_from_jsonable(x, "reference_basis") for x in row] for row in rb]
    return FlatBundle(rank, mats, exact=exact, reference_basis=rb)


def spray_to_jsonable(spray):
    return {str(cid): path_to_jsonable(leg) for cid, leg in spray.legs}


def spray_from_jsonable(data, complex_):
    _require(data, dict, "spray")
    legs = []
    for c in complex_.cells:
        key = str(c.id)
        if key not in data:
            raise FormatError(f"spray file lacks a leg for cell {c.id!r}")
        legs.append(
            (c.id, path_from_jsonable(data[key], complex_.base_vertex, c.anchor, f"leg {key}"))
        )
    return Spray(tuple(legs))


def numpy_scalar(x):
    """``default`` hook of the JSON writers: numpy integers and floats as Python numbers.

    Python and numpy doubles are written by ``float.__repr__``, the shortest
    string that reads back to the same double.
    """
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def canonical_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=numpy_scalar)


def content_digest(obj):
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def save_json(path, obj, indent=2):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=indent, sort_keys=True, default=numpy_scalar)
        fh.write("\n")
