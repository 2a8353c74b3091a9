import json
import subprocess
import sys
import warnings
from argparse import Namespace

import numpy as np
import pytest

from torsionlab.barycentric import barycentric_subdivide
from torsionlab.cli import main as cli_main
from torsionlab.corpus import corpus_get, corpus_list, random_flat_bundle
from torsionlab.errors import DenseSizeError
from torsionlab.flat_bundle import FlatBundle
from torsionlab.serialization import (
    FormatError,
    bundle_from_jsonable,
    bundle_to_jsonable,
    canonical_dumps,
    complex_from_jsonable,
    complex_to_jsonable,
    load_json,
    save_json,
    spray_from_jsonable,
    spray_to_jsonable,
)


class TestRoundTrips:
    @pytest.mark.parametrize("name", corpus_list())
    def test_complex_round_trip(self, name):
        cx = corpus_get(name).complex
        data = complex_to_jsonable(cx)
        back = complex_from_jsonable(json.loads(json.dumps(data)))
        assert back.validate().ok
        assert canonical_dumps(complex_to_jsonable(back)) == canonical_dumps(data)
        assert back.simplex_vertices == cx.simplex_vertices
        assert ("simplex_vertices" in data) == (cx.simplex_vertices is not None)

    def test_bundle_round_trip_exact(self):
        b = FlatBundle(2, {"a": [["1/2", 0], [1, 3]], "b": [[2, 0], [0, "7/3"]]})
        data = bundle_to_jsonable(b)
        back = bundle_from_jsonable(json.loads(json.dumps(data)))
        assert back.exact
        assert canonical_dumps(bundle_to_jsonable(back)) == canonical_dumps(data)

    def test_bundle_float_rejected_in_exact_mode(self):
        data = {"rank": 1, "edges": [{"edge": "e", "matrix": [0.5]}]}
        with pytest.raises(FormatError):
            bundle_from_jsonable(data, exact=True)
        assert not bundle_from_jsonable(data).exact

    def test_complex_floats_rejected(self):
        cx = corpus_get("circle-1cell").complex
        data = complex_to_jsonable(cx)
        data["incidences"][0]["coeff"] = 1.0
        with pytest.raises(FormatError):
            complex_from_jsonable(data)

    @pytest.mark.parametrize(
        "kind, path, message",
        [
            ("complex", [], "complex: missing key 'cells'"),
            ("complex", ["incidences"], "complex: missing key 'incidences'"),
            ("complex", ["base_vertex"], "complex: missing key 'base_vertex'"),
            ("complex", ["cells", 1, "dim"], "cells: missing key 'dim'"),
            ("complex", ["cells", 0, "anchor"], "cells: missing key 'anchor'"),
            ("complex", ["incidences", 2, "path"], "incidences: missing key 'path'"),
            ("complex", ["incidences", 0, "coface"], "incidences: missing key 'coface'"),
            ("complex", ["simplex_vertices", 0, "vertices"], "simplex_vertices: missing key 'vertices'"),
            ("bundle", ["rank"], "bundle: missing key 'rank'"),
            ("bundle", ["edges"], "bundle: missing key 'edges'"),
            ("bundle", ["edges", 0, "edge"], "edges: missing key 'edge'"),
            ("bundle", ["edges", 0, "matrix"], "edge 'a': matrix needs a list of 4 entries"),
        ],
    )
    def test_missing_key_names_the_object_and_the_key(self, kind, path, message):
        item = corpus_get("tetra-solid" if "simplex_vertices" in path else "torus")
        bundle = FlatBundle(2, {"a": [[2, 1], [1, 1]], "b": np.eye(2)})
        data, load = {
            "complex": (complex_to_jsonable(item.complex), complex_from_jsonable),
            "bundle": (bundle_to_jsonable(bundle), bundle_from_jsonable),
        }[kind]
        obj = data
        for key in path[:-1]:
            obj = obj[key]
        if path:
            del obj[path[-1]]
        else:
            data = {}
        with pytest.raises(FormatError) as err:
            load(data)
        assert str(err.value) == message

    def test_spray_round_trip(self):
        item = corpus_get("klein")
        data = spray_to_jsonable(item.spray)
        back = spray_from_jsonable(json.loads(json.dumps(data)), item.complex)
        assert spray_to_jsonable(back) == data

    def test_spray_missing_leg_rejected(self):
        item = corpus_get("klein")
        data = spray_to_jsonable(item.spray)
        del data["a"]
        with pytest.raises(FormatError):
            spray_from_jsonable(data, item.complex)


@pytest.fixture()
def torus_files(tmp_path):
    item = corpus_get("torus")
    paths = {}
    for kind, payload in (
        ("complex", complex_to_jsonable(item.complex)),
        ("bundle", bundle_to_jsonable(item.bundle)),
        ("spray", spray_to_jsonable(item.spray)),
    ):
        p = tmp_path / f"torus.{kind}.json"
        save_json(p, payload)
        paths[kind] = str(p)
    return paths


class TestCli:
    def run(self, *argv):
        return cli_main(list(argv))

    def test_validate_chi_homology(self, torus_files, capsys):
        assert self.run("validate", torus_files["complex"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"]
        assert self.run("chi", torus_files["complex"]) == 0
        assert json.loads(capsys.readouterr().out)["chi"] == 0
        assert self.run("homology", torus_files["complex"], "--degree", "1") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["betti"] == 2 and out["torsion"] == []

    def test_torsion_compute(self, torus_files, capsys):
        rc = self.run(
            "torsion",
            "compute",
            "--complex",
            torus_files["complex"],
            "--bundle",
            torus_files["bundle"],
            "--spray",
            torus_files["spray"],
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["t_comb"] - 1.0) <= 1e-9
        assert abs(out["ft_value"] - 1.0) <= 1e-9
        assert "t_comb_exact_route" in out

    def test_torsion_compute_assembles_once(self, torus_files, capsys, monkeypatch):
        import torsionlab.cli as cli
        import torsionlab.torsion_engine as te

        calls = []
        real = te.assemble
        for owner in (cli, te):
            monkeypatch.setattr(owner, "assemble", lambda *a: calls.append(1) or real(*a))
        rc = self.run(
            "torsion", "compute", "--complex", torus_files["complex"], "--bundle", torus_files["bundle"]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        assert abs(out["t_comb_det_route"] - out["t_comb"]) <= 1e-9
        assert out["t_comb_exact_route"] == out["t_comb"] == 1.0

    @pytest.mark.parametrize("exact", [True, False])
    def test_json_spectra_null_past_the_dense_budget(self, tmp_path, capsys, monkeypatch, exact):
        # the trivial rank-1 torus after one round has b = {0: 1, 1: 2, 2: 1}; an 8-byte budget
        # fits no Gram matrix, so only the spectra go, on either field's tau-chain
        import torsionlab.torsion_engine as te

        item = corpus_get("torus")
        trivial = FlatBundle(1, {"a": [[1]], "b": [[1]]})
        cx, bundle, spray, _ = barycentric_subdivide(item.complex, trivial, item.spray)
        bundle = bundle if exact else bundle.as_float()
        argv = ["torsion", "compute", "--json"]
        for kind, payload in (("complex", complex_to_jsonable(cx)),
                              ("bundle", bundle_to_jsonable(bundle)), ("spray", spray_to_jsonable(spray))):
            save_json(tmp_path / f"{kind}.json", payload)
            argv += [f"--{kind}", str(tmp_path / f"{kind}.json")]
        assert self.run(*argv) == 0
        want = json.loads(capsys.readouterr().out)
        assert len(want["spectra"]["1"]) == len(cx.cells_of_dim(1))
        monkeypatch.setattr(te, "DENSE_BUDGET_BYTES", 8)
        assert self.run(*argv) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["spectra"] is None and sorted(got) == sorted(want)
        assert ("t_comb_exact_route" in got) == exact
        for key in ("t_comb", "betti", "ft_value", "t_comb_det_route"):
            assert got[key] == want[key], key
        res = te.ft_torsion(cx, bundle, spray)
        assert res.to_jsonable()["spectra"] is None and res.to_jsonable()["betti"] == want["betti"]
        with pytest.raises(DenseSizeError, match="budget"):
            res.spectra

    def test_json_spectra_null_where_the_spectra_are_ill_conditioned(self, tmp_path, capsys):
        # float circle, e = diag(3, 1.00002): D_1 = diag(2, 2e-5), so the Gram eigenvalue 4e-10
        # sits in the spectral guard band while the tau-chain's pivot 2e-5 is far from its
        # cutoff 3e-10; both verbs report t = 4e-5 and write the spectra as null
        cx = corpus_get("circle-1cell").complex
        bundle = {"rank": 2, "edges": [{"edge": "e", "matrix": [3.0, 0.0, 0.0, 1.00002]}]}
        save_json(tmp_path / "c.json", complex_to_jsonable(cx))
        save_json(tmp_path / "b.json", bundle)
        files = ["--complex", str(tmp_path / "c.json"), "--bundle", str(tmp_path / "b.json")]
        assert self.run("torsion", "compute", "--json", *files) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["t_comb"] - 4e-5) <= 1e-9 * 4e-5 and out["spectra"] is None
        assert out["betti"] == {"0": 0, "1": 0} and "t_comb_exact_route" not in out
        second = [k + "2" if k.startswith("--") else k for k in files]
        assert self.run("torsion", "compare", "--json", *files, *second) == 0
        out = json.loads(capsys.readouterr().out)
        for side in ("first", "second"):
            assert abs(out[side]["t_comb"] - 4e-5) <= 1e-9 * 4e-5 and out[side]["spectra"] is None
        assert out["t_comb_ratio"] == 1.0

    def test_transport_and_kt(self, torus_files, capsys):
        path_arg = json.dumps(
            {"src": "v", "steps": [{"edge": "a", "dir": 1}, {"edge": "a", "dir": -1}]}
        )
        assert self.run(
            "transport",
            "--complex",
            torus_files["complex"],
            "--bundle",
            torus_files["bundle"],
            "--path",
            path_arg,
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["matrix"] == [[1.0]]
        assert self.run(
            "kt", "--complex", torus_files["complex"], "--bundle", torus_files["bundle"]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["values"] == [0.0, 0.0]

    @pytest.mark.parametrize("step", [["a:h0", 1], {"edge": "a"}, {"dir": 1}, "a"])
    def test_malformed_path_step_exits_2(self, torus_files, capsys, step):
        path = json.dumps({"src": "v", "steps": [step]})
        files = ["--complex", torus_files["complex"], "--bundle", torus_files["bundle"]]
        for argv in (["transport", *files, "--path", path], ["kt", *files, "--loop", path]):
            assert self.run(*argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: path:") and "Traceback" not in err

    def test_euler_verbs(self, torus_files, tmp_path, capsys):
        rc = self.run(
            "euler", "act", "--complex", torus_files["complex"], "--coords", "1,0"
        )
        assert rc == 0
        acted = json.loads(capsys.readouterr().out)
        acted_path = tmp_path / "acted.spray.json"
        acted_path.write_text(json.dumps(acted))
        rc = self.run(
            "euler",
            "diff",
            "--complex",
            torus_files["complex"],
            "--spray",
            torus_files["spray"],
            "--spray2",
            str(acted_path),
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["coords"] == [1, 0]

    def test_analytic_circle(self, capsys):
        rc = self.run("analytic", "circle", "--holonomy", "[[3]]")
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["value"] - 2.0) <= 1e-9

    @pytest.mark.parametrize(
        "extra",
        [
            ["--holonomy", "[[1e200]]"],
            ["--holonomy", "[[1.0]]", "--circumference", "1e200", "--truncation", "10"],
            ["--holonomy", "[[3]]", "--truncation", "-5"],
        ],
    )
    def test_analytic_circle_out_of_range_exits_2(self, capsys, extra):
        assert self.run("analytic", "circle", *extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_analytic_circle_small_holonomy_accepted(self, capsys):
        assert self.run("analytic", "circle", "--holonomy", "[[1e-5,0,0],[0,1e-5,0],[0,0,1e-5]]") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["zeta_det"]["discrepancy"] <= 1e-12
        assert self.run("analytic", "circle", "--holonomy", "[[1,2],[2,4]]") == 2
        assert capsys.readouterr().err.startswith("error: holonomy must be invertible")

    def test_det_route_past_float_range_volumes(self, torus_files, tmp_path, capsys):
        # rank 8, a = 1e60 I, b = I: vol(D_1) = 1e480, t_comb = 1
        eye = np.eye(8, dtype=int)
        bundle = {
            "rank": 8,
            "edges": [
                {"edge": "a", "matrix": [10**60 * int(x) for x in eye.flat]},
                {"edge": "b", "matrix": [int(x) for x in eye.flat]},
            ],
        }
        path = tmp_path / "big.bundle.json"
        path.write_text(json.dumps(bundle))
        assert self.run("torsion", "compute", "--complex", torus_files["complex"], "--bundle", str(path), "--json") == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["t_comb_det_route"] - 1.0) <= 1e-9
        assert out["t_comb_exact_route"] == 1.0

    @pytest.mark.parametrize("name", ["rp2", "sphere"])
    def test_rational_reference_basis_keeps_the_exact_route(self, name, tmp_path, capsys):
        # chi != 0, so the frame enters t_comb; the blocks stay rational under it
        item = corpus_get(name)
        bundle = random_flat_bundle(name, item.complex, np.random.default_rng(5), rank=2)
        save_json(tmp_path / "c.json", complex_to_jsonable(item.complex))
        save_json(
            tmp_path / "b.json",
            bundle_to_jsonable(bundle.with_reference_basis([["2", 0], ["1/3", 1]])),
        )
        argv = ("torsion", "compute", "--complex", str(tmp_path / "c.json"),
                "--bundle", str(tmp_path / "b.json"), "--json")
        assert self.run(*argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["t_comb_exact_route"] - out["t_comb_det_route"]) <= 1e-9
        assert abs(out["t_comb_exact_route"] - out["t_comb"]) <= 1e-9 * out["t_comb"]

    def test_corpus_verbs(self, capsys):
        assert self.run("corpus", "list") == 0
        names = json.loads(capsys.readouterr().out)["names"]
        assert "torus" in names and "lens-7-1" in names
        assert self.run("corpus", "get", "rp2") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["complex"]["name"] == "rp2"

    def test_exact_flag_rejects_float_bundle(self, tmp_path, capsys):
        save_json(tmp_path / "c.json", complex_to_jsonable(corpus_get("circle-1cell").complex))
        save_json(
            tmp_path / "b.json", {"rank": 1, "edges": [{"edge": "e", "matrix": [0.5]}]}
        )
        rc = self.run(
            "--exact",
            "torsion",
            "compute",
            "--complex",
            str(tmp_path / "c.json"),
            "--bundle",
            str(tmp_path / "b.json"),
        )
        assert rc == 2

    def test_euler_act_wrong_coordinate_count_exits_2(self, tmp_path, capsys):
        assert self.run("corpus", "get", "klein", "--out-dir", str(tmp_path)) == 0
        capsys.readouterr()
        klein = str(tmp_path / "klein.complex.json")
        assert self.run("euler", "act", "--coords", "", "--complex", klein) == 2
        assert capsys.readouterr().err.startswith("error: H1 class needs 2 coordinates")
        assert self.run("euler", "act", "--coords", "1,1", "--complex", klein) == 0

    def test_validate_invalid_exits_nonzero(self, tmp_path, capsys):
        data = complex_to_jsonable(corpus_get("circle-1cell").complex)
        data["base_vertex"] = "nope"
        save_json(tmp_path / "bad.json", data)
        assert self.run("validate", str(tmp_path / "bad.json")) == 1

    @pytest.mark.parametrize("face", ["nope", "F"])
    def test_an_edge_record_off_the_vertices_is_reported(self, tmp_path, capsys, face):
        # the vertex record of edge a names an unknown cell, or the 2-cell
        data = complex_to_jsonable(corpus_get("torus").complex)
        rec = next(r for r in data["incidences"] if r["coface"] == "a" and r["coeff"] == 1)
        rec["face"] = face
        save_json(tmp_path / "bad.json", data)
        assert self.run("--json", "validate", str(tmp_path / "bad.json")) == 1
        codes = {code for code, _ in json.loads(capsys.readouterr().out)["violations"]}
        assert "edge-endpoints" in codes and "connectivity" not in codes
        assert self.run("chi", str(tmp_path / "bad.json")) == 2
        assert capsys.readouterr().err.startswith("error: invalid complex:")

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_rank_tolerance_outside_zero_one_exits_2(self, tmp_path, capsys, tol):
        assert self.run("corpus", "get", "klein", "--out-dir", str(tmp_path)) == 0
        capsys.readouterr()
        files = ["--complex", str(tmp_path / "klein.complex.json"),
                 "--bundle", str(tmp_path / "klein.bundle.json")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # --tol -1 raised a numpy RuntimeWarning first
            assert self.run("--tol", tol, "torsion", "compute", *files) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: rank tolerance must be a finite number in (0, 1), got {float(tol)!r}"
        ]

    def test_unknown_corpus_item_exits_2_with_a_plain_message(self, capsys):
        assert self.run("corpus", "get", "nosuch") == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: unknown corpus item 'nosuch'; known: {', '.join(corpus_list())}"
        ]

    def test_loop_modify_verb(self, torus_files, capsys):
        loop_arg = json.dumps({"src": "v", "steps": [{"edge": "a", "dir": 1}]})
        rc = self.run(
            "euler", "loop-modify", "--complex", torus_files["complex"], "--loop", loop_arg
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        # every leg gains the loop as a prefix
        assert all(v[0] == {"edge": "a", "dir": 1} for v in out.values())

    def test_subdivide_and_compare_verbs(self, torus_files, tmp_path, capsys):
        prefix = str(tmp_path / "sub")
        rc = self.run(
            "subdivide",
            "--complex",
            torus_files["complex"],
            "--bundle",
            torus_files["bundle"],
            "--spray",
            torus_files["spray"],
            "--out-prefix",
            prefix,
        )
        assert rc == 0
        capsys.readouterr()
        rc = self.run(
            "torsion",
            "compare",
            "--complex",
            torus_files["complex"],
            "--bundle",
            torus_files["bundle"],
            "--spray",
            torus_files["spray"],
            "--complex2",
            f"{prefix}.complex.json",
            "--bundle2",
            f"{prefix}.bundle.json",
            "--spray2",
            f"{prefix}.spray.json",
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["first"]["acyclic"] is False
        assert out["t_comb_ratio"] > 0

    def test_suite_run_flatness(self, capsys):
        assert self.run("suite", "run", "flatness") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] and out["suite"] == "flatness"

    def test_json_flag_after_subcommand(self, capsys):
        assert self.run("--json", "suite", "run", "flatness") == 0
        before = capsys.readouterr().out
        assert self.run("suite", "run", "flatness", "--json") == 0
        assert capsys.readouterr().out == before
        assert self.run("corpus", "list", "--json") == 0
        assert capsys.readouterr().out == canonical_dumps({"names": corpus_list()}) + "\n"

    def test_simplicial_corpus_file_subdivides(self, tmp_path, capsys):
        work = tmp_path / "w"
        assert self.run("corpus", "get", "tetra-solid", "--out-dir", str(work)) == 0
        capsys.readouterr()
        rc = self.run(
            "subdivide",
            "--complex",
            str(work / "tetra-solid.complex.json"),
            "--bundle",
            str(work / "tetra-solid.bundle.json"),
            "--spray",
            str(work / "tetra-solid.spray.json"),
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        item = corpus_get("tetra-solid")
        direct = barycentric_subdivide(item.complex, item.bundle, item.spray)[0]
        assert out["complex"] == complex_to_jsonable(direct)

    def test_huge_rational_entry_exits_2(self, tmp_path, capsys):
        save_json(tmp_path / "c.json", complex_to_jsonable(corpus_get("circle-1cell").complex))
        save_json(tmp_path / "b.json", {"rank": 1, "edges": [{"edge": "e", "matrix": [10**400]}]})
        rc = self.run(
            "torsion",
            "compute",
            "--complex",
            str(tmp_path / "c.json"),
            "--bundle",
            str(tmp_path / "b.json"),
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_tiny_nonzero_entry_exits_2(self, tmp_path, capsys):
        save_json(tmp_path / "c.json", complex_to_jsonable(corpus_get("circle-1cell").complex))
        tiny = f"{10**400 + 1}/{10**400}"  # holonomy 1 + 10**-400
        save_json(tmp_path / "b.json", {"rank": 1, "edges": [{"edge": "e", "matrix": [tiny]}]})
        rc = self.run(
            "torsion",
            "compute",
            "--complex",
            str(tmp_path / "c.json"),
            "--bundle",
            str(tmp_path / "b.json"),
        )
        err = capsys.readouterr().err
        assert rc == 2
        # the exact route keeps the entry: t_comb = 10**-400 itself is past the float range
        assert err.startswith("error:") and "t_comb is about e**-921.0" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "key, value, words",
        [
            ("matrix", ["1/0"], "bad entry '1/0'"),
            ("reference_basis", [["1/0"]], "bad entry '1/0'"),
            ("matrix", 2, "a list of 1 entries"),
            ("reference_basis", [[0]], "reference_basis: matrix is singular"),
            ("reference_basis", [[1, 0]], "reference_basis: matrix is not 1 x 1"),
        ],
    )
    def test_malformed_bundle_entry_exits_2(self, torus_files, tmp_path, capsys, key, value, words):
        data = {"rank": 1, "edges": [{"edge": "a", "matrix": [2]}, {"edge": "b", "matrix": [1]}]}
        if key == "matrix":
            data["edges"][0]["matrix"] = value
        else:
            data[key] = value
        save_json(tmp_path / "b.json", data)
        rc = self.run(
            "torsion", "compute", "--complex", torus_files["complex"], "--bundle", str(tmp_path / "b.json")
        )
        err = capsys.readouterr().err
        assert rc == 2 and err.count("\n") == 1
        assert err.startswith("error:") and words in err and "Traceback" not in err

    def test_transport_out_of_float_range_exits_2(self, tmp_path, capsys):
        save_json(tmp_path / "c.json", complex_to_jsonable(corpus_get("circle-1cell").complex))
        save_json(tmp_path / "b.json", {"rank": 1, "edges": [{"edge": "e", "matrix": [10**400]}]})
        for direction, words in ((1, "too large"), (-1, "too small")):
            path = json.dumps({"src": "v", "steps": [{"edge": "e", "dir": direction}]})
            rc = self.run(
                "transport",
                "--complex",
                str(tmp_path / "c.json"),
                "--bundle",
                str(tmp_path / "b.json"),
                "--path",
                path,
            )
            err = capsys.readouterr().err
            assert rc == 2
            assert err.startswith("error:") and words in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "kind, text, words",
        [
            ("bundle", "MISSING", "No such file"),
            ("bundle", "DIRECTORY", "Is a directory"),
            ("bundle", '{"rank": 1, "edges": 5}', "edges: expected an array"),
            ("bundle", '{"rank": 1, "edges": [5]}', "edges: expected an object"),
            ("bundle", "[1, 2]", "bundle: expected an object"),
            ("complex", '{"cells": 3}', "cells: expected an array"),
            ("complex", '{"cells": []}', "complex: missing key 'incidences'"),
            ("bundle", '{"edges": []}', "bundle: missing key 'rank'"),
            (
                "bundle",
                '{"rank": 1, "edges": [{"edge": "a", "matrix": [2]}, {"edge": "a", "matrix": [3]}]}',
                "edge 'a': listed twice",
            ),
        ],
    )
    def test_unreadable_or_malformed_file_exits_2(self, torus_files, tmp_path, capsys, kind, text, words):
        (tmp_path / "bad.json").write_text(text)
        paths = {"MISSING": tmp_path / "missing.json", "DIRECTORY": tmp_path}
        files = dict(torus_files, **{kind: str(paths.get(text, tmp_path / "bad.json"))})
        rc = self.run("torsion", "compute", "--complex", files["complex"], "--bundle", files["bundle"])
        err = capsys.readouterr().err
        assert rc == 2 and err.count("\n") == 1
        assert err.startswith("error:") and words in err and "Traceback" not in err

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "torsionlab.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "torsionlab" in proc.stdout


def test_json_writers_pin_numpy_scalars_and_extreme_floats(tmp_path, capsys):
    from torsionlab.cli import _emit

    payload = {
        "f64": np.float64(0.1), "f32": np.float32(0.1), "i64": np.int64(-7),
        "t": (1, (2.5, np.float64(-0.0))), "neg0": -0.0, "tiny": 5e-324, "big": 1e308,
    }
    compact = '{"big":1e+308,"f32":0.10000000149011612,"f64":0.1,"i64":-7,"neg0":-0.0,"t":[1,[2.5,-0.0]],"tiny":5e-324}'
    assert canonical_dumps(payload) == compact
    indented = json.dumps(json.loads(compact), indent=2, sort_keys=True)
    save_json(tmp_path / "p.json", payload)
    assert (tmp_path / "p.json").read_text() == compact + "\n"
    save_json(tmp_path / "p.json", payload, indent=2)
    assert (tmp_path / "p.json").read_text() == indented + "\n"
    _emit(Namespace(json=False), payload)
    _emit(Namespace(json=True), payload)
    assert capsys.readouterr().out == indented + "\n" + compact + "\n"
    with pytest.raises(TypeError):
        canonical_dumps({"x": np.array([1.0])})


@pytest.mark.parametrize("name", ["torus", "tetra-solid"])
def test_save_json_writes_a_subdivided_complex_compactly_and_it_loads_back(tmp_path, name):
    item = corpus_get(name)
    data = complex_to_jsonable(barycentric_subdivide(item.complex, item.bundle, item.spray)[0])
    save_json(tmp_path / "c.json", data)
    text = (tmp_path / "c.json").read_text()
    assert text == canonical_dumps(data) + "\n" and text.count("\n") == 1
    assert load_json(tmp_path / "c.json") == data
    assert complex_to_jsonable(complex_from_jsonable(load_json(tmp_path / "c.json"))) == data
