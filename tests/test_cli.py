import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import dolharm
from dolharm.cli import main
from dolharm.problem import (canonical_problem, parse_problem,
                             reparse_canonical)
from dolharm.errors import SpecParseError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_listing(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    for name in ("secondary_kodaira", "inoue_sm", "hyperelliptic_II"):
        assert name in out


def test_catalog_show_requires_params_reports_domain(capsys):
    code, out, _ = run_cli(capsys, "catalog", "hyperelliptic_II")
    assert code == 0
    assert "0 < |t| < 1" in out


def test_catalog_show_unknown(capsys):
    code, _, err = run_cli(capsys, "catalog", "nonexistent")
    assert code == 2
    assert "unknown" in err


def test_catalog_show_full_entry(capsys):
    code, out, _ = run_cli(capsys, "catalog", "primary_kodaira_I", "--param", "alpha=1")
    assert code == 0
    assert "reference b2=2" in out and "b2=4" in out  # discrepancy surfaced


def test_h11_inline_json(capsys):
    code, out, _ = run_cli(capsys, "h11", "--entry", "primary_kodaira_II",
                           "--param", "beta=1", "--metric", "1,1,1/2,0",
                           "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["decision"]["delta"] == 1
    assert doc["decision"]["backend"] == "both"
    assert doc["decision"]["h11_by_provenance"]["paper_reference"] == 2
    assert doc["decision"]["h11_by_provenance"]["ce_computed"] == 3
    code, out, _ = run_cli(capsys, "h11", "--entry", "primary_kodaira_II",
                           "--param", "beta=1", "--metric", "1,1,0,1/4",
                           "--json")
    assert json.loads(out)["decision"]["delta"] == 0


def test_h11_requires_metric(capsys):
    code, _, err = run_cli(capsys, "h11", "--entry", "secondary_kodaira")
    assert code == 2
    assert "metric" in err


def test_validate_rejects_invalid_metric(capsys):
    code, _, err = run_cli(capsys, "validate", "--entry", "secondary_kodaira",
                           "--metric", "1,1,2,0")
    assert code == 2
    assert "|u|^2" in err


def test_validate_passes_catalog(capsys):
    code, out, _ = run_cli(capsys, "validate", "--entry", "secondary_kodaira",
                           "--metric", "1,1,0,0")
    assert code == 0
    assert "d^2=0 ok" in out


def test_validate_custom_structure_failure(capsys, tmp_path):
    doc = {
        "custom": {
            "structure": [
                {"i": 1, "j": 2, "k": 3, "c": "1"},
                {"i": 1, "j": 1, "k": 2, "c": "1"},
                {"i": 2, "j": 1, "k": 3, "c": "1"},
            ],
            "coframe": [
                [["1", "0"], ["0", "0"], ["0", "1"], ["0", "0"]],
                [["0", "0"], ["1", "0"], ["0", "0"], ["0", "1"]],
            ],
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "FAILED" in out
    # every other verb stops at the structure, also a sweep with no valid cell
    with_metric = tmp_path / "bad_metric.json"
    with_metric.write_text(json.dumps(
        {**doc, "metric": {"r": "1", "s": "2", "u_re": "0", "u_im": "0"}}))
    all_x = ["--r", "1", "--s", "1", "--u-re=5:6", "--u-im=5:6", "--steps", "3"]
    for argv in (["h11", str(with_metric)], ["ak-scan", str(path)],
                 ["report", str(path)], ["sweep", str(path), *all_x]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "d^2" in err, argv
    # a bad option is reported even when the sweep has no valid cell
    code, out, err = run_cli(capsys, "sweep", "--entry", "secondary_kodaira", *all_x,
                             "--tolerance", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "tolerance must lie in (0, 1)" in err


def test_ak_scan_json(capsys):
    code, out, _ = run_cli(capsys, "ak-scan", "--entry", "nilmanifold_I", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["almost_kahler"]["status"] == "infeasible"
    assert doc["symplectic"]["status"] == "feasible"
    assert "seed" not in doc and "seed" not in doc["problem"]["options"]
    assert "seed" not in doc["almost_kahler"] and "samples_used" not in doc["almost_kahler"]


def test_report_human_tags_backend(capsys):
    code, out, _ = run_cli(capsys, "report", "--entry", "secondary_kodaira",
                           "--metric", "1,1,0,0", "--backend", "float")
    assert code == 0
    assert "backend=float" in out
    assert "tolerance" in out
    # the residuals are relative to the size of d omega and of gamma
    assert ("  relative residuals: |i d^c gamma - d omega| / |d omega| = " in out
            and ", |star gamma + gamma| / |gamma| = " in out)


def test_backend_disagreement_exit_code(capsys):
    for argv in (("h11", "--entry", "secondary_kodaira", "--metric", "1,1,0,0"),
                 ("sweep", "--entry", "secondary_kodaira", "--r", "1", "--s", "1",
                  "--u-re=-1/2:1/2", "--u-im=-1/2:1/2", "--steps", "3")):
        code, out, err = run_cli(capsys, *argv, "--tolerance", "1e-30")
        assert code == 3 and not out
        assert "disagreement" in err
        assert "exact: delta=1 (ranks 3/3)" in err


def test_sweep_matches_h11_spotwise(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "sweep", "--entry", "secondary_kodaira",
                           "--r", "1", "--s", "1", "--u-re=-1/2:1/2",
                           "--u-im=-1/2:1/2", "--steps", "5", "--backend", "exact")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "u_im\\u_re"
    grid = {}
    u_res = lines[0].split(",")[1:]
    for line in lines[1:]:
        cells = line.split(",")
        for col, val in zip(u_res, cells[1:]):
            grid[(col, cells[0])] = val
    # row u_im = 0 is all ones, everything else zero
    for (ure, uim), val in grid.items():
        assert val == ("1" if Fraction(uim) == 0 else "0")
    # spot-check against h11 on a few cells
    import random

    rng = random.Random(0)
    for _ in range(20):
        ure = rng.choice(u_res)
        uim = rng.choice([line.split(",")[0] for line in lines[1:]])
        code, out2, _ = run_cli(capsys, "h11", "--entry", "secondary_kodaira",
                                "--metric", f"1,1,{ure},{uim}", "--json",
                                "--backend", "exact")
        assert code == 0
        assert str(json.loads(out2)["decision"]["delta"]) == grid[(ure, uim)]


def test_sweep_marks_invalid_cells(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--entry", "secondary_kodaira",
                           "--r", "1", "--s", "1", "--u-re=0:2", "--u-im=0:0",
                           "--steps", "3", "--backend", "exact")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row == ["0", "1", "x", "x"]  # |u| >= rs is rejected, boundary included


def test_sweep_deterministic_and_file_output(capsys, tmp_path):
    args = ("sweep", "--entry", "primary_kodaira_II", "--param", "beta=1",
            "--r", "1", "--s", "1", "--u-re=-1/4:1/4", "--u-im=-1/4:1/4",
            "--steps", "3", "--backend", "exact")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2
    target = tmp_path / "grid.csv"
    code3, out3, _ = run_cli(capsys, *args, "--out", str(target))
    assert code3 == 0
    assert target.read_text() == out1


def test_problem_file_roundtrip(tmp_path):
    doc = {
        "catalog": {"name": "inoue_sm", "params": {"alpha": "1", "beta": "-2"}},
        "metric": {"r": "3/2", "s": "1", "u_re": "1/4", "u_im": "-1/8"},
        "options": {"backend": "exact", "b_minus": "ce"},
    }
    problem = parse_problem(doc)
    echo = canonical_problem(problem)
    again = reparse_canonical(echo)
    assert again.lie == problem.lie
    assert again.coframe == problem.coframe
    assert again.metric == problem.metric
    assert again.options == problem.options
    assert canonical_problem(again) == echo
    doc["options"]["seed"] = 5
    with pytest.raises(SpecParseError) as err:
        parse_problem(doc)
    assert err.value.location == "options" and "seed" in err.value.message


def test_problem_parse_errors_are_located():
    with pytest.raises(SpecParseError) as err:
        parse_problem({"catalog": {"name": "inoue_sm"},
                       "metric": {"r": "1", "s": "1", "u_re": "x", "u_im": "0"}})
    assert "catalog" in str(err.value) or "metric" in str(err.value)
    with pytest.raises(SpecParseError) as err:
        parse_problem({})
    assert "catalog" in str(err.value)
    with pytest.raises(SpecParseError) as err:
        parse_problem({"catalog": {"name": "secondary_kodaira"},
                       "metric": {"r": "1", "s": "1", "u_re": "0"}})
    assert "u_im" in str(err.value)


def test_custom_problem_full_pipeline(capsys, tmp_path):
    # the hyperelliptic structure entered by hand must reproduce the verdict
    doc = {
        "custom": {
            "structure": [
                {"i": 1, "j": 2, "k": 3, "c": "-1"},
                {"i": 2, "j": 1, "k": 3, "c": "1"},
            ],
            "coframe": [
                [["1", "0"], ["0", "0"], ["0", "1"], ["0", "0"]],
                [["0", "0"], ["1", "0"], ["0", "0"], ["0", "1"]],
            ],
        },
        "metric": {"r": "1", "s": "1", "u_re": "0", "u_im": "0"},
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "h11", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["decision"]["delta"] == 0
    assert report["decision"]["b_minus_provenance"] == "ce_computed"
    assert report["decision"]["b_minus_used"] == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_consecutive_calls_keep_no_state(capsys):
    """main builds its parser once per process, and each call parses into a
    fresh namespace: no option, parameter or sub-command carries over."""
    from dolharm import cli

    first = ("h11", "--entry", "primary_kodaira_I", "--param", "alpha=1/2",
             "--metric", "1,1,1/2,0", "--backend", "exact", "--json")
    code, out, _ = run_cli(capsys, *first)
    assert code == 0
    doc = json.loads(out)
    assert doc["problem"]["catalog"]["params"] == {"alpha": "1/2"}
    assert doc["decision"]["delta"] == 1 and doc["backend"] == "exact"
    parser = cli._PARSER
    code, out, _ = run_cli(capsys, "h11", "--entry", "secondary_kodaira",
                           "--metric", "1,1,1/2,0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["problem"]["catalog"]["params"] == {}
    assert doc["problem"]["options"] == {"backend": "both", "tolerance": 1e-9,
                                         "b_minus": "auto"}
    code, out, _ = run_cli(capsys, "catalog", "primary_kodaira_I", "--param", "alpha=1")
    assert code == 0 and out.startswith("primary_kodaira_I:")
    code, out, _ = run_cli(capsys, "ak-scan", "--entry", "nilmanifold_I")
    assert code == 0 and "almost Kahler: infeasible" in out
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0 and capsys.readouterr().out == f"dolharm {dolharm.__version__}\n"
    with pytest.raises(SystemExit) as exc:
        main(["h11", "--bogus"])
    assert exc.value.code == 2 and "unrecognized arguments: --bogus" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, *first)
    assert code == 0 and json.loads(out) == json.loads(run_cli(capsys, *first)[1])
    assert json.loads(out)["problem"]["catalog"]["params"] == {"alpha": "1/2"}
    assert cli._PARSER is parser


def test_negative_b_minus_override_rejected(capsys, tmp_path):
    code, out, err = run_cli(capsys, "h11", "--entry", "secondary_kodaira",
                             "--metric", "1,1,1/2,0", "--b-minus=-5")
    assert code == 2 and not out
    assert "--b-minus" in err and "nonnegative" in err
    for value in (-3, "-3"):
        doc = {"catalog": {"name": "secondary_kodaira"},
               "metric": {"r": "1", "s": "1", "u_re": "1/2", "u_im": "0"},
               "options": {"b_minus": value}}
        with pytest.raises(SpecParseError) as exc:
            parse_problem(doc)
        assert exc.value.location == "options.b_minus"
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "h11", str(path))
        assert code == 2 and "options.b_minus" in err
    code, out, _ = run_cli(capsys, "h11", "--entry", "secondary_kodaira",
                           "--metric", "1,1,1/2,0", "--b-minus=0", "--json")
    assert code == 0 and json.loads(out)["decision"]["h11"] == 1


def test_internal_invariant_breach_exit_code(capsys, monkeypatch):
    import dolharm.decision as decision
    from dolharm.exterior import FrameTag, InvariantForm

    def broken_verify(lie, coframe, m, scaled):
        bad = InvariantForm.basis(FrameTag.COMPLEX, (1, 2, 3))
        return bad, InvariantForm.zero(FrameTag.COMPLEX, 2)

    monkeypatch.setattr(decision, "verify_witness", broken_verify)
    for argv in (("h11", "--entry", "secondary_kodaira", "--metric", "1,1,1/2,0",
                  "--backend", "exact"),
                 # every metric of this grid jumps, so its first one breaks
                 ("sweep", "--entry", "nilmanifold_I", "--r", "1", "--s", "2",
                  "--u-re=-1/2:1/2", "--u-im=-1/2:1/2", "--steps", "3")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 4 and not out
        assert "re-verification" in err


def test_exact_runs_do_not_import_numpy():
    """numpy belongs to the float backend alone: importing dolharm, an exact
    report, the catalog, an AK scan and an exact sweep leave it unloaded, and
    a decision on the default backend "both" loads it."""
    script = textwrap.dedent("""
        import contextlib, io, sys
        import dolharm
        from dolharm.cli import main

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(list(argv)) == 0

        run("report", "--entry", "secondary_kodaira", "--metric", "1,2,1/3,1/5",
            "--backend", "exact")
        run("catalog")
        run("ak-scan", "--entry", "nilmanifold_I")
        run("sweep", "--entry", "nilmanifold_I", "--r", "1", "--s", "2",
            "--u-re=-1/2:1/2", "--u-im=-1/2:1/2", "--steps", "3", "--backend", "exact")
        print("numpy" in sys.modules)
        run("h11", "--entry", "secondary_kodaira", "--metric", "1,2,1/3,1/5",
            "--backend", "both")
        print("numpy" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(dolharm.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


def test_float_backend_without_numpy_is_a_located_error():
    """With numpy unavailable, a float-backend run exits 2 with an error line
    that names the backend, not a traceback; an exact run still works."""
    script = textwrap.dedent("""
        import sys
        sys.modules["numpy"] = None  # makes "import numpy" fail
        from dolharm.cli import main
        sys.exit(main(sys.argv[1:]))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(dolharm.__file__).resolve().parents[1]))
    argv = ["h11", "--entry", "secondary_kodaira", "--metric", "1,2,1/3,1/5"]
    for backend in ([], ["--backend", "float"]):
        done = subprocess.run([sys.executable, "-c", script, *argv, *backend], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error:") and "Traceback" not in done.stderr
        assert "numpy" in done.stderr and "--backend exact" in done.stderr
        assert not done.stdout
    done = subprocess.run([sys.executable, "-c", script, *argv, "--backend", "exact"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "delta" in done.stdout


def test_float_witness_only_on_a_float_jump(capsys):
    """A tolerance near 1 can put the float rank of [M|v] below rank M; that
    verdict reads delta = 0 and takes no least-squares witness."""
    code, out, _ = run_cli(capsys, "h11", "--entry", "secondary_kodaira",
                           "--metric", "1,1,0,0", "--backend", "float",
                           "--tolerance", "0.9")
    assert code == 0 and "delta=0" in out and "witness" not in out
    code, out, _ = run_cli(capsys, "h11", "--entry", "inoue_sm", "--param", "alpha=1",
                           "--param", "beta=1", "--metric", "1,2,0,0", "--backend", "both",
                           "--tolerance", "0.6", "--json")
    decision = json.loads(out)["decision"]
    assert code == 0 and decision["delta"] == 0 and decision["witness"] is None
    assert decision["residuals"] == {"i_dc_gamma_minus_d_omega": 0.0,
                                     "star_gamma_plus_gamma": 0.0}


def _strict_json(text: str):
    """JSON with NaN and Infinity rejected, as any other JSON reader does."""
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("backend", ["exact", "both", "float"])
@pytest.mark.parametrize("r", ["1e200", "1e-200"])
def test_metric_beyond_double_range(capsys, r, backend):
    """r = 10^(+-200) gives a valid metric whose system lies beyond double
    range.  The exact backend decides it, with the witness exactly and as
    doubles; the float backend (alone or in "both") cannot hold the system
    and exits 2 with one error line.  Nothing raises."""
    argv = ["h11", "--entry", "secondary_kodaira", "--metric", f"{r},1,0,0",
            "--backend", backend, "--json"]
    code, out, err = run_cli(capsys, *argv)
    if backend != "exact":
        assert (code, out) == (2, "")
        assert err.startswith("error: the float backend cannot hold the system at r^2=")
        assert err.count("\n") == 1 and "use --backend exact" in err
        return
    assert (code, err) == (0, "")
    decision = _strict_json(out)["decision"]
    assert (decision["delta"], decision["rank"]) == (1, {"M": 3, "M_augmented": 3})
    # B' = -i r^2 and B = B'/tau = -i r, from the exact rationals
    r2 = Fraction(r) ** 2
    assert decision["witness"]["scaled_exact"]["B_scaled"] == {"re": "0", "im": str(-r2)}
    assert decision["witness"]["B"] == [0.0, -float(r)]
    code, out, err = run_cli(capsys, "sweep", "--entry", "secondary_kodaira", "--r", r,
                             "--s", "1", "--u-re=0:0", "--u-im=0:0", "--steps", "1",
                             "--backend", "exact")
    assert (code, err, out.splitlines()[1]) == (0, "", "0,1")


def test_witness_float_view_beyond_double_range_is_null(capsys):
    """B = B'/tau = -i r/s = -i 10^500 has no double: that part reads null
    in JSON and beyond-double in text, and scaled_exact holds it exactly."""
    argv = ["h11", "--entry", "secondary_kodaira", "--metric", "1e400,1e-100,0,0",
            "--backend", "exact"]
    code, out, _ = run_cli(capsys, *argv, "--json")
    witness = _strict_json(out)["decision"]["witness"]
    assert code == 0 and witness["B"] == [0.0, None] and witness["C"] == [0.0, None]
    assert witness["scaled_exact"]["B_scaled"]["im"] == str(-Fraction(10) ** 800)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "B=0+(beyond-double)i" in out


_CATALOG_DOC = {
    "catalog": {"name": "inoue_sm", "params": {"alpha": "1", "beta": "0"}},
    "metric": {"r": "1", "s": "2", "u_re": "1/2", "u_im": "0"},
    "options": {"backend": "exact", "b_minus": "ce", "tolerance": 1e-9},
}
_CUSTOM_DOC = {
    "custom": {
        "structure": [{"i": 1, "j": 2, "k": 3, "c": "-1"},
                      {"i": 2, "j": 1, "k": 3, "c": "1"}],
        "coframe": [[["1", "0"], ["0", "0"], ["0", "1"], ["0", "0"]],
                    [["0", "0"], ["1", "0"], ["0", "0"], ["0", "1"]]],
    },
    "metric": {"r": "1", "s": "1", "u_re": "0", "u_im": "0"},
}


def _base(path: tuple):
    return _CUSTOM_DOC if path[:1] == ("custom",) else _CATALOG_DOC


def _bad_doc(path: tuple, value, needle: str, name: str = ""):
    """``h11`` on a valid document with the node at ``path`` set to ``value``;
    the error must name ``needle``."""
    doc = json.loads(json.dumps(_base(path)))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if path:
        node[path[-1]] = value
    else:
        doc = value
    return pytest.param(["h11", "{tmp}/doc.json"], json.dumps(doc).encode(), needle,
                        id=name or f"{needle}={json.dumps(value)}")


def _with_key(path: tuple, key: str, where: str):
    node = _base(path)
    for step in path:
        node = node[step]
    return _bad_doc(path, {**node, key: "1"}, f"{where}: unexpected", f"{where} +{key}")


_SECTIONS = {(): "$", ("catalog",): "catalog", ("catalog", "params"): "catalog.params",
             ("metric",): "metric", ("options",): "options", ("custom",): "custom",
             ("custom", "structure"): "custom.structure",
             ("custom", "structure", 0): "custom.structure[0]",
             ("custom", "coframe"): "custom.coframe",
             ("custom", "coframe", 0): "custom.coframe[0]",
             ("custom", "coframe", 0, 1): "custom.coframe[0][1]"}
# (path, unexpected key, location); a catalog parameter is checked by the entry
_UNEXPECTED = [((), "option", "$"), (("catalog",), "parms", "catalog"),
               (("catalog", "params"), "gamma", "catalog"), (("metric",), "t", "metric"),
               (("options",), "seed", "options"), (("custom",), "metric", "custom"),
               (("custom", "structure", 0), "l", "custom.structure[0]")]
_RATIONALS = {("catalog", "params", "alpha"): "catalog.params.alpha",
              **{("metric", key): f"metric.{key}" for key in ("r", "s", "u_re", "u_im")},
              ("custom", "structure", 0, "c"): "custom.structure[0].c",
              ("custom", "coframe", 0, 1, 0): "custom.coframe[0][1]",
              ("custom", "coframe", 1, 3, 1): "custom.coframe[1][3]"}
_SWEEP = ["sweep", "--entry", "secondary_kodaira", "--u-re=0:1", "--u-im=0:1",
          "--steps", "2", "--backend", "exact"]
_H11 = ["h11", "--entry", "inoue_sm", "--param", "beta=0"]
_BAD_INPUTS = [
    *(_bad_doc(path, value, where) for path, where in _SECTIONS.items()
      for value in (5, None, [1], "x")),
    *(_with_key(path, key, where) for path, key, where in _UNEXPECTED),
    *(_bad_doc(path, "1/0", where) for path, where in _RATIONALS.items()),
    _bad_doc(("custom", "structure", 0, "i"), 1.7, "custom.structure[0]"),
    _bad_doc(("custom", "structure", 0, "i"), "1", "custom.structure[0]"),
    *(_bad_doc(("options", "b_minus"), value, "options.b_minus") for value in (1.5, True)),
    pytest.param([*_SWEEP, "--r", "abc"], None, "--r", id="--r=abc"),
    pytest.param([*_SWEEP, "--r", "1/0"], None, "--r", id="--r=1/0"),
    pytest.param([*_SWEEP, "--r", "1", "--s", "1/0"], None, "--s", id="--s=1/0"),
    pytest.param([*_SWEEP, "--r", "1", "--u-re=1/0:1"], None, "grid.u_re",
                 id="--u-re=1/0:1"),
    pytest.param([*_H11, "--param", "alpha=1/0", "--metric", "1,2,0,0"], None,
                 "catalog.params.alpha", id="h11 --param alpha=1/0"),
    pytest.param([*_H11, "--param", "alpha=1", "--metric", "1,1/0,0,0"], None,
                 "metric.s", id="--metric=1,1/0,0,0"),
    pytest.param(["catalog", "inoue_sm", "--param", "alpha=1/0", "--param", "beta=0"],
                 None, "--param.alpha", id="catalog --param alpha=1/0"),
    pytest.param(["ak-scan", "--entry", "nilmanifold_I", "--b-minus", "foo"], None,
                 "--b-minus", id="--b-minus=foo"),
    pytest.param(["h11", "{tmp}/missing.json"], None, "{tmp}/missing.json",
                 id="missing file"),
    pytest.param(["h11", "{tmp}"], None, "{tmp}", id="directory"),
    pytest.param(["h11", "{tmp}/doc.json"], b'{"catalog": "\xff"}', "{tmp}/doc.json",
                 id="not UTF-8"),
]


@pytest.mark.parametrize("argv, content, needle", _BAD_INPUTS)
def test_bad_input_is_one_located_error(capsys, tmp_path, argv, content, needle):
    """Every malformed input from outside -- a section of the wrong type, an
    unexpected field, a rational that does not parse, an unreadable file --
    exits 2 with one ``error:`` line naming the field, and raises nothing."""
    if content is not None:
        (tmp_path / "doc.json").write_bytes(content)
    code, out, err = run_cli(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle.replace("{tmp}", str(tmp_path)) in err
