import json
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import l2growth
from l2growth import cli, exact
from l2growth.cli import main
from l2growth.document import parse_complex
from l2growth.errors import DocumentError, SizeCapExceeded
from conftest import COMPLEXES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_betti_circle(capsys):
    code, out, _ = run(capsys, "betti", str(COMPLEXES / "circle.json"),
                       "--subgroup", "12", "--dim", "1")
    assert code == 0
    assert "b=1 index=12 short=12" in out
    assert "agreement=ok" in out


def test_betti_with_an_exponent_past_int64(capsys, tmp_path):
    doc = json.loads((COMPLEXES / "circle.json").read_text())
    doc["boundaries"][0]["entries"][0][0][0]["element"] = [2 ** 70]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "betti", str(path), "--subgroup", "6", "--dim", "1")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["b=2 index=6 short=6", "characters: b=2 agreement=ok"]


def test_verify_refuses_a_negative_seed(capsys):
    code, out, err = run(capsys, "verify", "--suite", "all", "--seed", "-1")
    assert (code, out, err) == (1, "", "error: seed must be nonnegative, got -1\n")


def test_betti_stripe(capsys):
    code, out, _ = run(capsys, "betti", str(COMPLEXES / "stripe_t2_q3.json"),
                       "--subgroup", "2 0; 0 3", "--dim", "3")
    assert code == 0
    assert out.splitlines()[0] == "b=3 index=6 short=2"


def test_betti_congruence(capsys, tmp_path):
    doc = {
        "group": {"kind": "integral_matrix", "dimension": 2,
                  "generators": [[[1, 2], [0, 1]], [[1, 0], [2, 1]]]},
        "cells": [1, 1],
        "boundaries": [{"dim": 1, "entries": [[[{"coeff": 2, "word": []},
                                                {"coeff": -1, "word": [1]}]]]}],
    }
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "betti", str(path), "--subgroup", "mod 3",
                       "--dim", "1")
    assert code == 0
    assert out.strip() == "b=0 index=24 short=3"


@pytest.mark.parametrize("raw", ["eig=0", "bogus=1"])
def test_bad_caps_in_the_environment_exit_1(raw):
    src = pathlib.Path(l2growth.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "L2GROWTH_CAPS": raw}
    imported = subprocess.run(
        [sys.executable, "-c", "from l2growth import Caps, DEFAULT_CAPS; print(DEFAULT_CAPS == Caps())"],
        env=env, capture_output=True, text=True)
    assert imported.returncode == 0 and imported.stdout.strip() == "True"
    ran = subprocess.run(
        [sys.executable, "-m", "l2growth.cli", "betti", str(COMPLEXES / "circle.json"),
         "--subgroup", "3", "--dim", "0"], env=env, capture_output=True, text=True)
    assert ran.returncode == 1 and "Traceback" not in ran.stderr
    assert len(ran.stderr.splitlines()) == 1 and ran.stderr.startswith("error: ")


@pytest.mark.parametrize("regime, name", [
    (["--regime", "ns", "--beta", "nan", "--c-density", "0.5"], "beta"),
    (["--regime", "ns", "--beta", "0.5", "--c-density", "nan"], "c_density"),
    (["--regime", "gap", "--lambda0", "nan"], "lambda0"),
], ids=["beta", "c_density", "lambda0"])
def test_nan_bound_argument_exits_1(capsys, regime, name):
    # a NaN passes every comparison check: unrefused, the ns regime would report
    # bound=nan as a violated theorem (exit 3), and the gap regime blame the density
    code, out, err = run(capsys, "bounds", str(COMPLEXES / "circle.json"), "--dim", "1",
                         "--subgroup", "7", *regime)
    assert (code, out, err) == (1, "", f"error: {name} must be finite, got nan\n")


def test_boundary_past_the_l1_bound_exits_1(capsys):
    d1 = [[[{"coeff": 2 ** 62, "element": [k]} for k in (1, 2, 3, 4)]]]
    doc = {"group": {"kind": "free_abelian", "rank": 1}, "cells": [1, 1],
           "boundaries": [{"dim": 1, "entries": d1}]}
    code, out, err = run(capsys, "betti", json.dumps(doc), "--subgroup", "1", "--dim", "0")
    assert code == 1 and not out and err.startswith("error: ")


def test_malformed_boundary_rejected(capsys, tmp_path):
    doc = json.loads((COMPLEXES / "circle.json").read_text())
    doc["cells"] = [1, 1, 1]
    doc["boundaries"].append(
        {"dim": 2, "entries": [[[{"coeff": 1, "element": [0]}]]]})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _out, err = run(capsys, "betti", str(path), "--subgroup", "3",
                          "--dim", "1")
    assert code == 1
    assert "d_1 o d_2" in err and "(0, 0)" in err


def test_density_csv(capsys):
    code, out, _ = run(capsys, "density", str(COMPLEXES / "circle.json"),
                       "--dim", "0", "--grid", "0:4:0.5", "--samples", "8192",
                       "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,F"
    rows = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    assert rows[2.0] == pytest.approx(0.5, abs=0.02)
    assert rows[4.0] == 1.0


def test_density_gap_zero_below_one(capsys):
    code, out, _ = run(capsys, "density", str(COMPLEXES / "gap.json"),
                       "--dim", "1", "--grid", "0:0.95:0.05",
                       "--samples", "2048")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        lam, val = (float(x) for x in line.split(","))
        assert val == 0.0


def test_density_deterministic_and_ns(capsys, tmp_path):
    argv = ["density", str(COMPLEXES / "circle.json"), "--dim", "0",
            "--samples", "131072", "--seed", "11", "--ns"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    alpha_line = out1.strip().splitlines()[-1]
    assert alpha_line.startswith("alpha_hat,")
    assert 0.8 <= float(alpha_line.split(",")[1]) <= 1.2
    out_path = tmp_path / "density.csv"
    code3, _, _ = run(capsys, *argv, "--out", str(out_path))
    assert code3 == 0 and out_path.read_text() == out1


def test_density_quotient_family(capsys):
    code, out, _ = run(capsys, "density", str(COMPLEXES / "circle.json"),
                       "--dim", "0", "--quotients", "10,100",
                       "--grid", "0:4:1")
    assert code == 0
    rows = dict(tuple(map(float, l.split(",")))
                for l in out.strip().splitlines()[1:])
    assert rows[2.0] == pytest.approx(0.5, abs=0.06)


def test_density_quotients_past_the_eigensolver_cap(capsys):
    # a 5000-element circle cover, past the 2000-row eig cap, and one of 100000
    code, out, err = run(capsys, "density", str(COMPLEXES / "circle.json"),
                         "--dim", "0", "--quotients", "5000,100000", "--grid", "0:4:1")
    assert (code, err) == (0, "")
    assert out == "lambda,F\n0,1e-05\n1,0.33333\n2,0.50001\n3,0.66667\n4,1\n"


def test_density_ns_refusal_names_the_sample_count(capsys):
    # a decay fit over Z^2 needs about 10^6 samples; the default is 65536
    code, out, err = run(capsys, "density", str(COMPLEXES / "torus2.json"), "--dim", "1",
                         "--ns")
    assert (code, out) == (1, "")
    assert err == ("error: only 0.000293..0.01 usable in torus_quadrature(65536); "
                   "need two decades\n")


def test_density_ns_refuses_a_rise_within_the_sample_floor(capsys):
    # F rises 4 samples over the window: not a gap, and too few to fit
    code, out, err = run(capsys, "density", str(COMPLEXES / "torus2.json"), "--dim", "1",
                         "--samples", "1000", "--seed", "0", "--ns")
    assert (code, out) == (1, "")
    assert err == ("error: none of 1e-06..0.01 usable in torus_quadrature(1000): F rises "
                   "0.004, within 4 samples; need two decades\n")


def test_density_usage_errors(capsys):
    code, _, err = run(capsys, "density", str(COMPLEXES / "circle.json"),
                       "--dim", "0", "--samples", "0")
    assert code == 1 and "sample_count" in err
    code2, _, err2 = run(capsys, "density", str(COMPLEXES / "circle.json"),
                         "--dim", "0", "--grid", "oops")
    assert code2 == 1


def test_bounds_gap(capsys):
    code, out, _ = run(capsys, "bounds", str(COMPLEXES / "gap.json"),
                       "--subgroup", "30", "--dim", "1", "--regime", "gap",
                       "--lambda0", "1", "--samples", "4096")
    assert code == 0
    assert "SATISFIED" in out and "M=0.666667" in out
    bound = float(next(p.split("=")[1] for p in out.split() if p.startswith("bound=")))
    assert bound == pytest.approx(120 * np.exp(-20.0), rel=1e-4)


def test_bounds_sublog(capsys):
    code, out, _ = run(capsys, "bounds", str(COMPLEXES / "circle.json"),
                       "--subgroup", "100", "--dim", "1", "--regime", "sublog",
                       "--samples", "16384")
    assert code == 0 and "SATISFIED" in out


def test_bounds_ns_with_estimated_constant(capsys):
    code, out, _ = run(capsys, "bounds", str(COMPLEXES / "circle.json"),
                       "--subgroup", "50", "--dim", "1", "--regime", "ns",
                       "--beta", "0.5", "--samples", "16384")
    assert code == 0 and "SATISFIED" in out
    assert "C_density_mode=fitted" in out.split()


def test_bounds_ns_with_given_constant(capsys):
    code, out, _ = run(capsys, "bounds", str(COMPLEXES / "circle.json"),
                       "--subgroup", "50", "--dim", "1", "--regime", "ns",
                       "--beta", "0.5", "--c-density", "0.5", "--samples", "16384")
    assert code == 0 and "SATISFIED" in out
    assert {"C_density=0.5", "C_density_mode=given"} <= set(out.split())


def test_density_past_byte_budget_exits_1(capsys):
    code, out, err = run(capsys, "density", str(COMPLEXES / "circle.json"),
                         "--dim", "0", "--samples", "10000000000")
    assert code == 1 and out == ""
    assert "byte budget" in err


@pytest.mark.parametrize("grid", ["0:4:1e-15", "0:nan:1", "-inf:4:1", "0:4:inf"])
def test_density_grid_too_fine_or_not_finite_exits_1(capsys, grid):
    code, out, err = run(capsys, "density", str(COMPLEXES / "circle.json"),
                         "--dim", "0", "--samples", "1000", f"--grid={grid}")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_density_grid_keeps_the_byte_budget(capsys, monkeypatch):
    budget = 10 ** 7
    monkeypatch.setattr(exact, "_DENSE_BYTES", budget)
    points = budget // cli._GRID_POINT_BYTES
    for last, code_want in ((points - 1, 0), (points, 1)):  # points + 1 points: one too many
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "density", str(COMPLEXES / "circle.json"), "--dim", "0",
                                 "--samples", "1000", "--grid", f"0:{last}:1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == code_want
        if code:  # refused before the grid is allocated
            assert "byte budget" in err and peak < budget / 10
        else:  # the estimate bounds what the grid and its CSV take
            assert len(out.splitlines()) == points + 1 and peak < budget


def test_density_grid_refusal_is_the_shared_byte_budget(capsys):
    with pytest.raises(SizeCapExceeded):
        cli._parse_grid("0:4:1e-15", 4.0)
    code, out, err = run(capsys, "density", str(COMPLEXES / "circle.json"), "--dim", "0",
                         "--samples", "1000", "--grid", "0:4:1e-15")
    assert (code, out) == (1, "")
    assert err == ("error: --grid '0:4:1e-15' with 4e+15 points needs 6.400000000000001e+17 "
                   "bytes, above the 1073741824-byte budget\n")


def test_density_grid_byte_check_counts_the_points_numpy_makes(capsys, monkeypatch):
    # np.arange(0, 2.6 + 0.5, 1) makes 4 points (640 bytes), not the 3.6 (576 bytes)
    # of (hi - lo) / step + 1; --quotients keeps the quadrature out of the budget
    monkeypatch.setattr(exact, "_DENSE_BYTES", 600)
    code, out, err = run(capsys, "density", str(COMPLEXES / "circle.json"), "--dim", "0",
                         "--quotients", "4,5", "--grid", "0:2.6:1")
    assert (code, out) == (1, "")
    assert err == ("error: --grid '0:2.6:1' with 4 points needs 640.0 bytes, "
                   "above the 600-byte budget\n")


def test_bounds_gap_unverified_exit_1(capsys):
    code, _, err = run(capsys, "bounds", str(COMPLEXES / "circle.json"),
                       "--subgroup", "12", "--dim", "0", "--regime", "gap",
                       "--lambda0", "1", "--samples", "4096")
    assert code == 1
    assert "mass below" in err


def test_bounds_family_csv(capsys):
    code, out, _ = run(capsys, "bounds", str(COMPLEXES / "gap.json"),
                       "--dim", "1", "--regime", "gap", "--lambda0", "1",
                       "--samples", "2048", "--family", "4|12|60")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,short,betti,bound"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "4" and first[1] == "4" and first[2] == "0"


def test_cross_check_mismatch_exits_2(capsys, monkeypatch):
    import l2growth.cli as cli_mod

    def broken(cx, quot, dim, caps, cross_check=False):
        return 999, None

    monkeypatch.setattr(cli_mod, "betti_by_characters", broken)
    code, out, _ = run(capsys, "betti", str(COMPLEXES / "circle.json"),
                       "--subgroup", "5", "--dim", "0")
    assert code == 2
    assert "MISMATCH" in out


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "nope"])
    assert err.value.code == 1


def test_verify_stripes_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "stripes")
    assert code == 0
    assert out.startswith("stripes: ")
    total = out.split()[1]
    passed, ran = (int(x) for x in total.split("/"))
    assert passed == ran >= 300


def test_verify_bounds_suite(capsys):
    assert run(capsys, "verify", "--suite", "bounds") == (0, "bounds: 40/40 pass\n", "")


def test_missing_document(capsys):
    code, _, err = run(capsys, "betti", "/nonexistent.json",
                       "--subgroup", "2", "--dim", "0")
    assert code == 1


def test_missing_file_is_refused_as_missing(capsys, tmp_path):
    missing = tmp_path / "no_such.json"
    for doc in (missing, str(missing), COMPLEXES / "no_such"):
        with pytest.raises(DocumentError, match=re.escape(f"cannot read {doc}: no such file")):
            parse_complex(doc)
    code, out, err = run(capsys, "betti", str(missing), "--subgroup", "3", "--dim", "0")
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: cannot read {missing}: no such file"]


def test_parse_complex_text_longer_than_a_file_name(tmp_path):
    path = COMPLEXES / "stripe_t2_q3.json"
    text = path.read_text()
    assert len(text) > 255
    assert parse_complex(text).cells == parse_complex(path).cells
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    for bad in ("x" * 4096, "{\0}", "", "/nonexistent.json", str(COMPLEXES), COMPLEXES,
                binary, *MALFORMED):
        with pytest.raises(DocumentError):
            parse_complex(bad)


CIRCLE = json.loads((COMPLEXES / "circle.json").read_text())
MATRIX_GROUP = {"kind": "integral_matrix", "dimension": 2, "generators": [[[1, 2], [0, 1]]]}


def _circle_with(path, value):
    """The circle document with the field at ``path`` set to ``value``."""
    doc = json.loads(json.dumps(CIRCLE))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


TERM = ("boundaries", 0, "entries", 0, 0, 0)
MALFORMED = [
    dict(CIRCLE, boundaries=[5]),  # an item that is not an object
    dict(CIRCLE, boundaries=CIRCLE["boundaries"][0]),  # an object, not a list
    {"group": dict(MATRIX_GROUP, generators=[5]), "cells": [1]},
    # 1.5 is not truncated to 1, which would answer for another group
    {"group": dict(MATRIX_GROUP, generators=[[[1, 1.5], [0, 1]]]), "cells": [1]},
    {"group": dict(MATRIX_GROUP, dimension=0, generators=[[]]), "cells": [1]},
    # a matrix-group term names its element by a word; none is read as the identity
    {"group": MATRIX_GROUP, "cells": [1, 1], "boundaries": [
        {"dim": 1, "entries": [[[{"coeff": -1, "element": [[1, 2], [0, 1]]}]]]}]},
    {"group": MATRIX_GROUP, "cells": [1, 1], "boundaries": [
        {"dim": 1, "entries": [[[{"coeff": -1, "wrod": [1]}]]]}]},
    {"group": MATRIX_GROUP, "cells": [1, 1], "boundaries": [
        {"dim": 1, "entries": [[[{"coeff": 2}]]]}]},
    _circle_with(TERM + ("extra",), 5),
]


def test_malformed_document_exits_1(capsys):
    code, _out, err = run(capsys, "betti", json.dumps(MALFORMED[0]), "--subgroup", "3",
                          "--dim", "0")
    assert code == 1 and err.startswith("error: ")


# JSON true and false are not integers, although Python's bool subclasses int
BOOLEAN_FOR_INTEGER = [
    _circle_with(("group", "rank"), True),
    _circle_with(("cells", 1), True),
    _circle_with(("boundaries", 0, "dim"), True),
    _circle_with(TERM + ("coeff",), True),
    _circle_with(TERM + ("element",), [True]),
    {"group": dict(MATRIX_GROUP, generators=[[[1, True], [0, 1]]]), "cells": [1]},
    {"group": MATRIX_GROUP, "cells": [1, 1],
     "boundaries": [{"dim": 1, "entries": [[[{"coeff": 1, "word": [True]}]]]}]},
]


@pytest.mark.parametrize("doc", BOOLEAN_FOR_INTEGER)
def test_boolean_for_an_integer_is_refused(capsys, doc):
    with pytest.raises(DocumentError):
        parse_complex(doc)
    code, _out, err = run(capsys, "betti", json.dumps(doc), "--subgroup", "3", "--dim", "0")
    assert code == 1 and err.startswith("error: ")
