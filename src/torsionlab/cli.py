"""Command-line interface.

Verbs: validate, chi, homology, subdivide, transport, kt,
euler {diff,act,loop-modify}, torsion {compute,compare}, analytic circle,
suite run NAME, corpus {list,get}.  File formats are the JSON schemas of the
library; exact rationals travel as "p/q" strings; floats print as the
shortest repr that reads back to the same double.  Unreadable or malformed
input exits 2 with one "error:" line.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from . import linalg_exact as lx
from .analytic_model import CircleModel, analytic_torsion_of_det, zeta_det_laplacian
from .barycentric import barycentric_subdivide
from .complex_core import EdgePath
from .corpus import corpus_get, corpus_list
from .errors import TorsionLabError
from .euler_struct import act, canonical_spray, h1_class_for, loop_modify, spray_difference
from .flat_bundle import kt_class, kt_evaluate
from .serialization import (
    FormatError,
    bundle_from_jsonable,
    bundle_to_jsonable,
    canonical_dumps,
    complex_from_jsonable,
    complex_to_jsonable,
    load_json,
    numpy_scalar,
    path_from_jsonable,
    save_json,
    spray_from_jsonable,
    spray_to_jsonable,
)
from .suites import SUITES, run_suite
from .torsion_engine import RANK_TOL, assemble, ft_torsion, ft_torsion_of_tcc, t_comb


def _load_complex(path):
    return complex_from_jsonable(load_json(path))


def _load_bundle(args, path):
    """The bundle file at path; with --exact a float entry is a FormatError."""
    return bundle_from_jsonable(load_json(path), exact=True if args.exact else None)


def _load_spray(path, cx):
    return spray_from_jsonable(load_json(path), cx)


def _emit(args, payload):
    if getattr(args, "json", False):
        print(canonical_dumps(payload))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True, default=numpy_scalar))


def _path_from_arg(text, cx):
    data = json.loads(text)
    if isinstance(data, dict):
        steps = data.get("steps", [])
        src = data.get("src")
    else:
        steps, src = data, None
    if src is None:
        raise FormatError('path JSON needs a "src" vertex')
    p = path_from_jsonable(steps, src, None, "path")
    at = src
    for step in p.steps:
        s, t = cx.step_endpoints(step)
        if s != at:
            raise FormatError("path steps are not head-to-tail from src")
        at = t
    return EdgePath(p.steps, src, at)


def _spray_for(args, cx):
    if getattr(args, "spray", None):
        return _load_spray(args.spray, cx)
    return canonical_spray(cx)


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="torsionlab",
        description="combinatorial torsion of finite complexes with flat bundles",
    )
    ap.add_argument("--version", action="version", version=f"torsionlab {__version__}")
    ap.add_argument("--exact", action="store_true", help="require exact rational input")
    ap.add_argument("--tol", type=float, default=None, help="rank tolerance override")
    ap.add_argument("--json", action="store_true", help="compact canonical JSON output")
    # --json is also accepted after any subcommand; SUPPRESS keeps an earlier one
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS, help="compact canonical JSON output"
    )

    def add(subs, name, **kw):
        return subs.add_parser(name, parents=[json_flag], **kw)

    sub = ap.add_subparsers(dest="cmd", required=True)

    p = add(sub, "validate", help="check a complex file against its invariants")
    p.add_argument("complex")

    p = add(sub, "chi", help="Euler characteristic of a complex file")
    p.add_argument("complex")

    p = add(sub, "homology", help="integral homology of a complex file")
    p.add_argument("complex")
    p.add_argument("--degree", type=int, required=True)

    p = add(sub, "subdivide", help="barycentric subdivision of a triple")
    p.add_argument("--complex", required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--spray")
    p.add_argument("--out-prefix", help="write PREFIX.{complex,bundle,spray}.json")

    p = add(sub, "transport", help="parallel transport along a path")
    p.add_argument("--complex", required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--path", required=True, help='JSON: {"src": v, "steps": [{"edge": e, "dir": 1}, ...]}')

    p = add(sub, "kt", help="volume-distortion class, or one loop evaluation")
    p.add_argument("--complex", required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--loop", help="JSON loop; omitted: tabulate on the H1 basis")

    p = add(sub, "euler", help="Euler-structure operations")
    esub = p.add_subparsers(dest="euler_cmd", required=True)
    pd = add(esub, "diff", help="difference class of two sprays")
    pd.add_argument("--complex", required=True)
    pd.add_argument("--spray", required=True)
    pd.add_argument("--spray2", required=True)
    pa = add(esub, "act", help="act on a spray by an H1 class")
    pa.add_argument("--complex", required=True)
    pa.add_argument("--spray")
    pa.add_argument("--coords", required=True, help="comma-separated integers")
    pl = add(esub, "loop-modify", help="prepend a based loop to every leg")
    pl.add_argument("--complex", required=True)
    pl.add_argument("--spray")
    pl.add_argument("--loop", required=True)

    p = add(sub, "torsion", help="torsion computations")
    tsub = p.add_subparsers(dest="torsion_cmd", required=True)
    pc = add(tsub, "compute", help="torsion result of one triple")
    pc.add_argument("--complex", required=True)
    pc.add_argument("--bundle", required=True)
    pc.add_argument("--spray")
    pcmp = add(tsub, "compare", help="torsion results and ratios of two triples")
    for tag in ("", "2"):
        pcmp.add_argument(f"--complex{tag}", required=True)
        pcmp.add_argument(f"--bundle{tag}", required=True)
        pcmp.add_argument(f"--spray{tag}")

    p = add(sub, "analytic", help="analytic torsion models")
    asub = p.add_subparsers(dest="analytic_cmd", required=True)
    pa = add(asub, "circle", help="circle with given holonomy matrix")
    pa.add_argument("--holonomy", required=True, help="JSON matrix (rows)")
    pa.add_argument("--circumference", type=float, default=1.0)
    pa.add_argument(
        "--truncation",
        type=int,
        default=100_000,
        help="terms in the spectral-product route (default 100000)",
    )

    p = add(sub, "suite", help="invariance suites")
    ssub = p.add_subparsers(dest="suite_cmd", required=True)
    pr = add(ssub, "run", help="run one named suite")
    pr.add_argument("name", choices=sorted(SUITES))

    p = add(sub, "corpus", help="built-in complexes")
    csub = p.add_subparsers(dest="corpus_cmd", required=True)
    add(csub, "list", help="list corpus names")
    pg = add(csub, "get", help="emit one corpus triple")
    pg.add_argument("name")
    pg.add_argument("--out-dir", help="write NAME.{complex,bundle,spray}.json here")

    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except (TorsionLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args):
    rank_tol = args.tol if args.tol is not None else RANK_TOL

    if args.cmd == "validate":
        cx = _load_complex(args.complex)
        rep = cx.validate()
        _emit(args, {"ok": rep.ok, "violations": [list(v) for v in rep.violations]})
        return 0 if rep.ok else 1

    if args.cmd == "chi":
        cx = _load_complex(args.complex)
        _emit(args, {"chi": cx.euler_characteristic()})
        return 0

    if args.cmd == "homology":
        cx = _load_complex(args.complex)
        betti, torsion = cx.integral_homology(args.degree)
        _emit(args, {"degree": args.degree, "betti": betti, "torsion": torsion})
        return 0

    if args.cmd == "subdivide":
        cx = _load_complex(args.complex)
        bundle = _load_bundle(args, args.bundle)
        spray = _spray_for(args, cx)
        sub_cx, sub_b, sub_s, smap = barycentric_subdivide(cx, bundle, spray)
        payload = {
            "complex": complex_to_jsonable(sub_cx),
            "bundle": bundle_to_jsonable(sub_b),
            "spray": spray_to_jsonable(sub_s),
            "carriers": {str(k): str(v) for k, v in sorted(smap.cell_carriers.items(), key=lambda kv: str(kv[0]))},
        }
        if args.out_prefix:
            save_json(f"{args.out_prefix}.complex.json", payload["complex"])
            save_json(f"{args.out_prefix}.bundle.json", payload["bundle"])
            save_json(f"{args.out_prefix}.spray.json", payload["spray"])
            print(f"wrote {args.out_prefix}.{{complex,bundle,spray}}.json")
        else:
            _emit(args, payload)
        return 0

    if args.cmd == "transport":
        cx = _load_complex(args.complex)
        bundle = _load_bundle(args, args.bundle)
        steps = _path_from_arg(args.path, cx).steps
        _emit(args, {"matrix": lx.scaled_to_float(*bundle.transports([steps]))[0].tolist()})
        return 0

    if args.cmd == "kt":
        cx = _load_complex(args.complex)
        bundle = _load_bundle(args, args.bundle)
        if args.loop:
            loop = _path_from_arg(args.loop, cx)
            _emit(args, {"value": kt_evaluate(bundle, loop)})
        else:
            kc = kt_class(cx, bundle)
            _emit(args, {"values": list(kc.values), "torsion": list(kc.torsion)})
        return 0

    if args.cmd == "euler":
        cx = _load_complex(args.complex)
        if args.euler_cmd == "diff":
            a = _load_spray(args.spray, cx)
            b = _load_spray(args.spray2, cx)
            d = spray_difference(cx, a, b)
            _emit(args, {"coords": list(d.coords), "torsion": list(d.torsion), "rank": d.rank})
            return 0
        spray = _spray_for(args, cx)
        if args.euler_cmd == "act":
            coords = [int(x) for x in args.coords.split(",") if x.strip() != ""]
            u = h1_class_for(cx, coords)
            beta = act(cx, u, spray)
            _emit(args, spray_to_jsonable(beta))
            return 0
        if args.euler_cmd == "loop-modify":
            loop = _path_from_arg(args.loop, cx)
            _emit(args, spray_to_jsonable(loop_modify(cx, spray, loop)))
            return 0

    if args.cmd == "torsion":
        if args.torsion_cmd == "compute":
            cx = _load_complex(args.complex)
            bundle = _load_bundle(args, args.bundle)
            spray = _spray_for(args, cx)
            tcc = assemble(cx, bundle, spray)
            out = ft_torsion_of_tcc(tcc, rank_tol=rank_tol).to_jsonable()
            out["t_comb_det_route"] = t_comb(tcc, "det", rank_tol)
            if tcc.exact:
                out["t_comb_exact_route"] = t_comb(tcc, "exact")
            _emit(args, out)
            return 0
        if args.torsion_cmd == "compare":
            cx1 = _load_complex(args.complex)
            b1 = _load_bundle(args, args.bundle)
            s1 = _load_spray(args.spray, cx1) if args.spray else canonical_spray(cx1)
            cx2 = _load_complex(args.complex2)
            b2 = _load_bundle(args, args.bundle2)
            s2 = _load_spray(args.spray2, cx2) if args.spray2 else canonical_spray(cx2)
            r1 = ft_torsion(cx1, b1, s1, rank_tol=rank_tol)
            r2 = ft_torsion(cx2, b2, s2, rank_tol=rank_tol)
            _emit(
                args,
                {
                    "first": r1.to_jsonable(),
                    "second": r2.to_jsonable(),
                    "t_comb_ratio": r2.t_comb / r1.t_comb,
                    "ft_value_ratio": r2.ft_metric.value / r1.ft_metric.value,
                },
            )
            return 0

    if args.cmd == "analytic" and args.analytic_cmd == "circle":
        rows = json.loads(args.holonomy)
        model = CircleModel(np.array(rows, dtype=float), circumference=args.circumference)
        det0 = zeta_det_laplacian(model, truncation=args.truncation, allow_zero_modes=True)
        out = analytic_torsion_of_det(model, det0).to_jsonable()
        out["zeta_det"] = det0.to_jsonable()
        _emit(args, out)
        return 0

    if args.cmd == "suite" and args.suite_cmd == "run":
        rep = run_suite(args.name)
        print(rep.dumps() if args.json else json.dumps(rep.to_jsonable(), indent=2, sort_keys=True))
        return 0 if rep.passed else 1

    if args.cmd == "corpus":
        if args.corpus_cmd == "list":
            _emit(args, {"names": corpus_list()})
            return 0
        item = corpus_get(args.name)
        payload = {
            "complex": complex_to_jsonable(item.complex),
            "bundle": bundle_to_jsonable(item.bundle),
            "spray": spray_to_jsonable(item.spray),
        }
        if args.out_dir:
            import os

            os.makedirs(args.out_dir, exist_ok=True)
            for kind in ("complex", "bundle", "spray"):
                save_json(os.path.join(args.out_dir, f"{args.name}.{kind}.json"), payload[kind])
            print(f"wrote {args.name}.* to {args.out_dir}")
        else:
            _emit(args, payload)
        return 0

    raise ValueError(f"unhandled command {args.cmd!r}")


if __name__ == "__main__":
    sys.exit(main())
