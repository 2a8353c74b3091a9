"""JSON formats for complexes, bundles, sprays, and reports.

Complex files carry exact integers only; floats in structural fields are
rejected on load.  Bundle matrices accept numbers or exact rational strings
"p/q"; loading with exact=True rejects float entries.  Report floats are
serialized with 17 significant digits.
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


def _require_int(x, where):
    if isinstance(x, bool) or not isinstance(x, int):
        raise FormatError(f"{where}: expected an exact integer, got {x!r}")
    return x


def path_to_jsonable(path):
    return [{"edge": e, "dir": d} for e, d in path.steps]


def path_from_jsonable(data, src, dst, where="path"):
    steps = []
    for item in data:
        if not (isinstance(item, dict) and "edge" in item and "dir" in item):
            raise FormatError(f'{where}: a step is an {{"edge", "dir"}} object, got {item!r}')
        d = _require_int(item["dir"], where)
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
    for c in data["cells"]:
        dim = _require_int(c["dim"], "cells.dim")
        cells.append(Cell(c["id"], dim, c["anchor"]))
        anchors[c["id"]] = c["anchor"]
    incidences = []
    for r in data["incidences"]:
        coeff = _require_int(r["coeff"], "incidences.coeff")
        src = anchors.get(r["coface"])
        dst = anchors.get(r["face"])
        incidences.append(
            Incidence(r["coface"], r["face"], coeff, path_from_jsonable(r["path"], src, dst))
        )
    simplex_vertices = {
        s["cell"]: tuple(s["vertices"]) for s in data.get("simplex_vertices", ())
    }
    return ComplexDescription(
        cells, incidences, data["base_vertex"], data.get("name", ""), simplex_vertices
    )


def _entry_to_jsonable(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, (int, float)):
        return x
    if isinstance(x, np.floating):
        return float(x)
    raise FormatError(f"cannot serialize matrix entry {x!r}")


def bundle_to_jsonable(bundle):
    edges = []
    mats = bundle.edge_matrices
    for e in sorted(mats, key=str):
        m = mats[e]
        if bundle.exact:
            flat = [_entry_to_jsonable(x) for row in m for x in row]
        else:
            flat = [float(x) for row in m for x in row]
        edges.append({"edge": e, "matrix": flat})
    out = {"rank": bundle.rank, "edges": edges}
    if bundle.reference_basis is not None:
        rb = bundle.reference_basis
        rows = rb.tolist() if isinstance(rb, np.ndarray) else [
            [_entry_to_jsonable(x) for x in row] for row in rb
        ]
        out["reference_basis"] = rows
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
    rank = _require_int(data["rank"], "rank")
    mats = {}
    any_float = False
    for item in data["edges"]:
        flat = item["matrix"]
        where = f"edge {item['edge']!r}"
        if not isinstance(flat, list) or len(flat) != rank * rank:
            raise FormatError(f"{where}: matrix needs a list of {rank * rank} entries")
        entries = [_entry_from_jsonable(x, where) for x in flat]
        floats = [x for x in entries if isinstance(x, float)]
        if floats and exact:
            raise FormatError(f"{where}: float entry {floats[0]!r} rejected in exact mode")
        any_float = any_float or bool(floats)
        mats[item["edge"]] = [entries[rank * i : rank * i + rank] for i in range(rank)]
    want_exact = (not any_float) if exact is None else exact
    if not want_exact:
        mats = {e: [[float(x) for x in row] for row in m] for e, m in mats.items()}
    rb = data.get("reference_basis")
    if rb is not None:
        if not (isinstance(rb, list) and all(isinstance(row, list) for row in rb)):
            raise FormatError("reference_basis: expected a list of rows")
        rb = [[_entry_from_jsonable(x, "reference_basis") for x in row] for row in rb]
    return FlatBundle(rank, mats, exact=want_exact, reference_basis=rb)


def spray_to_jsonable(spray):
    return {str(cid): path_to_jsonable(leg) for cid, leg in spray.legs}


def spray_from_jsonable(data, complex_):
    legs = []
    for c in complex_.cells:
        key = str(c.id)
        if key not in data:
            raise FormatError(f"spray file lacks a leg for cell {c.id!r}")
        legs.append(
            (c.id, path_from_jsonable(data[key], complex_.base_vertex, c.anchor, f"leg {key}"))
        )
    return Spray(tuple(legs))


def format_float(x):
    return float(f"{float(x):.17g}")


def jsonable_with_floats(obj):
    if isinstance(obj, dict):
        return {k: jsonable_with_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable_with_floats(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def canonical_dumps(obj):
    return json.dumps(jsonable_with_floats(obj), sort_keys=True, separators=(",", ":"))


def content_digest(obj):
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def save_json(path, obj, indent=2):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jsonable_with_floats(obj), fh, indent=indent, sort_keys=True)
        fh.write("\n")
