import json

import pytest

from newtonbench import __version__
from newtonbench.cli import main
from newtonbench.polynomials import poly_to_json
from newtonbench.families import MAX_VALUATION_BITS, FamilyId, gen_exact


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _err = run(capsys, *argv)
    return code, json.loads(out)


def test_profile_family(capsys):
    code, report = run_json(capsys, "profile", "--family", "q:2")
    assert code == 0
    assert report["profile"] == [["-1", 1], ["-2", 1]]
    assert report["zero_roots"] == 0
    assert report["version"] == __version__
    assert report["input"]["family"] == "q:2"


def test_polygon_family(capsys):
    code, report = run_json(capsys, "polygon", "--family", "q:2")
    assert code == 0
    assert report["vertices"] == [[0, "1"], [1, "2"], [2, "4"]]
    assert report["slopes"] == [["1", 1], ["2", 1]]


def test_polygon_poly_file(capsys, tmp_path):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(poly_to_json(gen_exact(FamilyId("q", 2)))))
    code, report = run_json(capsys, "polygon", "--poly", str(path))
    assert code == 0
    assert report["vertices"] == [[0, "1"], [1, "2"], [2, "4"]]

    code, report = run_json(capsys, "profile", "--poly", str(path), "--prime", "2")
    assert code == 0
    assert report["profile"] == [["-1", 1], ["-2", 1]]


def test_polygon_needs_exactly_one_source(capsys):
    code, _out, err = run(capsys, "polygon")
    assert code == 2 and "error" in err
    code, _out, err = run(capsys, "polygon", "--family", "q:2", "--poly", "x.json")
    assert code == 2


def test_certify_p6(capsys):
    code, report = run_json(capsys, "certify", "--family", "p:6",
                            "--constant", "28", "--T", "2")
    assert code == 0
    assert report["family"] == "p:6"
    assert report["conditions"] == [True, True]
    assert report["constant"] == 28
    assert report["D"] == "2^2"
    assert report["thresholds"] == {"uniform": None, "nonuniform": 337}
    assert report["gap_condition"] is True
    assert report["gap_anomaly"] is False


def test_certify_failing_family_exits_1(capsys):
    code, report = run_json(capsys, "certify", "--family", "q:4", "--T", "1")
    assert code == 1
    assert report["conditions"][0] is False
    assert report["thresholds"]["uniform"] == 4


def test_subset_sums(capsys):
    code, report = run_json(capsys, "subset-sums", "--values", "22,13,9,8")
    assert code == 0
    assert report["count"] == 14
    assert report["gap_condition"] is True
    assert report["distinct"] is False


def test_subset_sums_bad_values(capsys):
    code, _out, err = run(capsys, "subset-sums", "--values", "5,abc")
    assert code == 2 and "error" in err
    code, _out, err = run(capsys, "subset-sums", "--values", "")
    assert code == 2


def test_thresholds(capsys):
    code, report = run_json(capsys, "thresholds", "--T", "1")
    assert code == 0
    assert report["uniform"] == 4
    assert report["nonuniform"] == 57
    code, report = run_json(capsys, "thresholds", "--T", "1", "--constant", "21")
    assert report["nonuniform"] == 43


def test_gen_exact_and_valued(capsys):
    code, report = run_json(capsys, "gen", "--family", "p:2", "--repr", "exact")
    assert code == 0
    assert report["coeffs"] == ["65536", "16", "2"]
    code, report = run_json(capsys, "gen", "--family", "q:2", "--repr", "valued")
    assert report["entries"] == [[0, "1"], [1, "2"], [2, "4"]]


def test_gen_infeasible(capsys):
    code, _out, err = run(capsys, "gen", "--family", "p:6", "--repr", "exact")
    assert code == 2
    assert "2^36" in err


def test_refute_trees_family_target(capsys):
    code, report = run_json(capsys, "refute-trees", "--target", "q:2",
                            "--max-depth", "2")
    assert code == 0
    assert report["refuted"] is True
    assert report["all_generic_paths_fail_divisibility"] is True


def test_refute_trees_witness_exits_1(capsys, tmp_path):
    path = tmp_path / "target.json"
    path.write_text(json.dumps({"repr": "dense", "coeffs": ["0", "-1", "1"]}))
    code, report = run_json(capsys, "refute-trees", "--target", str(path),
                            "--max-depth", "4")
    assert code == 1
    assert report["decided"] is True
    assert report["witness"].startswith("n0 = input")


def test_reports_reproduce_byte_for_byte(capsys):
    fixed = [
        ["profile", "--family", "q:3"],
        ["certify", "--family", "p:4", "--T", "2"],
        ["subset-sums", "--values", "16,4,1"],
        ["thresholds", "--T", "3"],
        ["gen", "--family", "x:2", "--repr", "exact"],
        ["refute-trees", "--target", "q:2", "--max-depth", "2"],
    ]
    for argv in fixed:
        _code, out1, _ = run(capsys, *argv)
        _code, out2, _ = run(capsys, *argv)
        assert out1 == out2


def test_report_embeds_rerunnable_input(capsys):
    code, report = run_json(capsys, "thresholds", "--T", "3", "--constant", "21")
    given = report["input"]
    argv = [given["command"], "--T", str(given["T"]), "--constant",
            str(given["constant"])]
    code2, report2 = run_json(capsys, *argv)
    assert (code, report) == (code2, report2)


_BAD_FILES = {
    "float.json": {"repr": "dense", "coeffs": [1.5, "2"]},
    "list.json": ["1", "2"],
    "badval.json": {"repr": "valued", "prime": 2, "degree": 1,
                    "entries": [[0, "abc"], [1, "0"]]},
    "strcoeffs.json": {"repr": "dense", "coeffs": "12"},
    "strprime.json": {"repr": "valued", "prime": "two", "degree": 1,
                      "entries": [[0, "1"], [1, "0"]]},
    "strdegree.json": {"repr": "valued", "prime": 2, "degree": "x",
                       "entries": [[0, "1"], [1, "0"]]},
    "triple.json": {"repr": "valued", "prime": 2, "degree": 1,
                    "entries": [[0, "1", 5], [1, "0"]]},
}


@pytest.mark.parametrize("argv", [
    ["polygon", "--poly", "float.json"],
    ["refute-trees", "--target", "float.json", "--max-depth", "1"],
    ["polygon", "--poly", "list.json"],
    ["refute-trees", "--target", "list.json", "--max-depth", "1"],
    ["profile", "--poly", "badval.json"],
    ["certify", "--family", "p:4", "--T", "-1"],
    ["certify", "--family", "p:4", "--T", "0"],
    ["refute-trees", "--target", "q:2", "--max-depth", "1", "--constants", "1/0"],
    ["subset-sums", "--values", "3,1/0"],
    ["refute-trees", "--target", "strcoeffs.json", "--max-depth", "1"],
    ["polygon", "--poly", "strprime.json"],
    ["profile", "--poly", "strdegree.json"],
    ["polygon", "--poly", "triple.json"],
    ["refute-trees", "--target", "q:2", "--max-depth", "1", "--ops", ",,"],
    ["gen", "--family", "q:2", "--repr", "exact", "--bit-budget", "-5"],
    ["polygon", "--family", "q:99999999999"],
    ["refute-trees", "--target", "q:2", "--max-depth", "1", "--max-states", "-5"],
    ["certify", "--family", "p:4", "--T", str(MAX_VALUATION_BITS + 1)],
    ["thresholds", "--T", "9" * 1500],
    ["subset-sums", "--values", "4,2,1", "--budget", "25"],
    ["subset-sums", "--values", "4,2,1", "--budget", "-1"],
])
def test_malformed_input_exits_2_with_one_error_line(argv, capsys, tmp_path,
                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, content in _BAD_FILES.items():
        (tmp_path / name).write_text(json.dumps(content))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_pretty_flag(capsys):
    _c, compact, _ = run(capsys, "thresholds", "--T", "2")
    _c, pretty, _ = run(capsys, "thresholds", "--T", "2", "--pretty")
    assert json.loads(compact) == json.loads(pretty)
    assert "\n  " in pretty and "\n  " not in compact


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["refute-trees", "--target", "q:2", "--max-depth", "1", "--workers", "1"])
    assert err.value.code == 2
