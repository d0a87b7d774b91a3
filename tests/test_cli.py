"""End-to-end tests for the command line interface.

Each test spawns the CLI as a subprocess so exit codes and the stdout/stderr
separation are exercised exactly as a user would see them.
"""
import json
import math
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "homcurv.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def stdout_doc(proc):
    doc = json.loads(proc.stdout)
    assert doc["schema_version"] == 1
    return doc


def stderr_error(proc):
    # error documents are the last stderr line, after the banner
    line = proc.stderr.strip().splitlines()[-1]
    doc = json.loads(line)
    assert doc["schema_version"] == 1
    return doc["error"]


def test_catalog_lists_every_entry():
    proc = run_cli("catalog")
    assert proc.returncode == 0
    doc = stdout_doc(proc)
    assert doc["kind"] == "catalog"
    assert len(doc["entries"]) == 21
    labels = {e["label"] for e in doc["entries"]}
    assert "berger7" in labels and "stiefel" in labels


def test_banner_reports_version_and_seed():
    # the version only: a seed is recorded in the documents that draw from it
    proc = run_cli("catalog")
    assert proc.stderr == "homcurv 0.1.0\n"


@pytest.mark.parametrize("args, names", [
    (["certify", "berger7", "--bogus"], "unrecognized arguments: --bogus"),
    (["certify", "berger7", "--starts", "abc"], "argument --starts"),
    ([], "required: command"),
    # only the plane searches take a seed, and the tolerances are constants
    (["build", "berger7", "--seed", "3"], "unrecognized arguments: --seed"),
    (["certify", "berger7", "--zero-tol", "0"],
     "unrecognized arguments: --zero-tol"),
])
def test_command_line_errors_are_json_documents(args, names):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert names in stderr_error(proc)
    code, out, err = _main_in_process(*args)
    assert (code, out, err) == (2, "", proc.stderr)


def test_unknown_label_is_a_usage_error():
    proc = run_cli("build", "nosuch")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "unknown catalog label" in stderr_error(proc)


def test_build_emits_loadable_document():
    proc = run_cli("build", "sp2circle", "--p", "3", "--q", "1")
    assert proc.returncode == 0
    doc = stdout_doc(proc)
    assert doc["kind"] == "space"
    assert doc["dim_h"] == 1 and doc["dim_p"] == 9
    assert len(doc["p_basis"]) == 9
    assert len(doc["p_basis"][0]) == 10
    assert doc["structure_constants"]["shape"] == [10, 10, 10]


def test_missing_space_is_usage_error():
    proc = run_cli("build")
    assert proc.returncode == 2
    assert "space is required" in stderr_error(proc)


def test_pipeline_round_trip(tmp_path):
    path = tmp_path / "w11.json"
    built = run_cli("build", "aloffwallach-su3", "--p", "1", "--q", "1",
                    "--out", str(path))
    assert built.returncode == 0
    from_file = run_cli("decompose", str(path))
    from_label = run_cli("decompose", "aloffwallach-su3", "--p", "1", "--q", "1")
    doc = stdout_doc(from_file)
    assert doc == stdout_doc(from_label)
    assert sum(c["dim"] for c in doc["components"]) == 7


def test_tampered_document_is_rejected(tmp_path):
    path = tmp_path / "bad.json"
    built = run_cli("build", "berger7", "--out", str(path))
    assert built.returncode == 0
    doc = json.loads(path.read_text())
    doc["structure_constants"]["triplets"][0][-1] *= 2.0
    path.write_text(json.dumps(doc))
    proc = run_cli("decompose", str(path))
    assert proc.returncode == 2
    assert "structure constants" in stderr_error(proc)


def test_malformed_document_is_a_load_error(tmp_path):
    # an out-of-range triplet index used to escape as a bare IndexError
    path = tmp_path / "bad.json"
    assert run_cli("build", "berger7", "--out", str(path)).returncode == 0
    doc = json.loads(path.read_text())
    doc["structure_constants"]["triplets"][0][0] = 999
    path.write_text(json.dumps(doc))
    proc = run_cli("decompose", str(path))
    assert proc.returncode == 2
    assert stderr_error(proc).startswith(f"cannot load space from {path}: "
                                         "structure_constants")


@pytest.mark.parametrize("command", ["certify", "decompose"])
def test_document_with_non_orthonormal_basis_is_a_load_error(tmp_path, command):
    # loaded, a doubled p_basis would give certify a false witness and
    # decompose an internal error
    path = tmp_path / "doubled.json"
    assert run_cli("build", "berger7", "--out", str(path)).returncode == 0
    doc = json.loads(path.read_text())
    doc["p_basis"] = [[2 * x for x in row] for row in doc["p_basis"]]
    path.write_text(json.dumps(doc))
    proc = run_cli(command, str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    error = stderr_error(proc)
    assert error.startswith(f"cannot load space from {path}: ")
    assert "rows of h_basis and p_basis are not orthonormal" in error


def _set(field, value):
    def corrupt(doc):
        doc[field] = value
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (_set("params", [1, 2]), "params must be an object of integers, got [1, 2]"),
    (_set("ambient", 5), "ambient must be a string, got 5"),
    (_set("params", {"n": 2.7}), "params must be an object of integers, got {'n': 2.7}"),
    (_set("label", 7), "label must be a string, got 7"),
])
def test_malformed_document_fields_are_load_errors(tmp_path, corrupt, message):
    # each escaped as an AttributeError or loaded with a coerced value
    path = tmp_path / "cpn.json"
    assert run_cli("build", "cpn", "--n", "2", "--out", str(path)).returncode == 0
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    proc = run_cli("decompose", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert stderr_error(proc).startswith(f"cannot load space from {path}: {message}")


def test_missing_required_param_is_rejected():
    proc = run_cli("build", "sp2circle")
    assert proc.returncode == 2
    assert "sp2circle" in stderr_error(proc)


def test_decompose_reports_component_dims():
    proc = run_cli("decompose", "stiefel")
    doc = stdout_doc(proc)
    assert doc["kind"] == "decomposition"
    assert [c["dim"] for c in doc["components"]] == [3, 6]
    assert doc["commutant_dim"] == 15


def test_metric_diag_scale_count_mismatch():
    proc = run_cli("metric", "wallach6", "--metric", "diag:1,2")
    assert proc.returncode == 2
    assert "scale" in stderr_error(proc)


@pytest.mark.parametrize("spec,message", [
    ("sample:two", "bad sample metric spec"),
    ("file:missing.json", "cannot read metric from missing.json"),
])
def test_bad_metric_specs_are_usage_errors(spec, message):
    proc = run_cli("metric", "wallach6", "--metric", spec)
    assert proc.returncode == 2
    assert message in stderr_error(proc)


def test_metric_document_has_validation_residuals():
    proc = run_cli("metric", "wallach6", "--metric", "diag:1,1,0.5")
    assert proc.returncode == 0
    doc = stdout_doc(proc)
    assert doc["kind"] == "metric"
    mat = doc["matrix"]
    assert len(mat) == 6 and len(mat[0]) == 6
    assert doc["residuals"]["equivariance"] < 1e-9
    assert doc["residuals"]["condition_number"] == pytest.approx(2.0)


def test_curvature_on_random_plane():
    proc = run_cli("curvature", "sphere-so", "--n", "4",
                   "--plane", "random:3")
    assert proc.returncode == 0
    doc = stdout_doc(proc)
    assert math.isfinite(doc["sectional"])
    assert abs(doc["sectional"] - 0.5) < 1e-8


def test_curvature_plane_from_file(tmp_path):
    plane = {"x": [1, 0, 0, 0], "y": [0, 1, 0, 0]}
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(plane))
    proc = run_cli("curvature", "sphere-so", "--n", "4",
                   "--plane", str(path))
    doc = stdout_doc(proc)
    assert abs(doc["sectional"] - 0.5) < 1e-10


@pytest.mark.parametrize("first, message", [
    (math.nan, "non-finite entries"),
    (1e200, "Gram determinant of the plane vectors overflows"),
    (1e-200, "Gram determinant of the plane vectors underflows"),
])
def test_curvature_rejects_bad_plane_files(tmp_path, first, message):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps({"x": [first] + [0] * 6, "y": [0, 1] + [0] * 5}))
    proc = run_cli("curvature", "berger7", "--plane", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    error = stderr_error(proc)
    assert error.startswith("--plane") and message in error


@pytest.mark.parametrize("plane", [[1, 2], {"x": {"a": 1}, "y": [0, 1]}])
def test_plane_files_of_the_wrong_shape_are_read_errors(tmp_path, plane):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(plane))
    proc = run_cli("curvature", "cpn", "--n", "2", "--plane", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert stderr_error(proc).startswith(f"cannot read plane from {path}: ")


def test_obstruct_fires_on_nonpositive_sample():
    proc = run_cli("obstruct", "stiefel", "--metric", "sample:0",
                   "--check", "min-eigenvalue", "--starts", "8")
    assert proc.returncode == 0
    doc = stdout_doc(proc)
    assert doc["obstruction_found"] is True and doc["draw_scheme"] == 3
    witness = doc["checks"]["min-eigenvalue"]
    assert witness["found"] is True
    assert witness["numerator"] <= 1e-10


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("args", [["sphere-so", "--n", "1"],
                                  ["sphere-u", "--n", "0", "--check", "commuting"]])
def test_witnesses_without_a_plane_write_standard_json(args):
    proc = run_cli("obstruct", *args)
    assert proc.returncode == 0
    doc = _strict_json(proc.stdout)
    assert all(w["objective"] is None and not w["found"]
               for w in doc["checks"].values())


def test_obstruct_samples_mode():
    proc = run_cli("obstruct", "s3s3circle", "--p", "2", "--q", "1",
                   "--metric", "sample:7", "--samples", "5",
                   "--check", "commuting")
    assert proc.returncode == 0
    doc = stdout_doc(proc)
    assert doc["witness_count"] == 5
    assert [r["metric_seed"] for r in doc["samples"]] == [7, 8, 9, 10, 11]
    assert all(r["witness"]["found"] for r in doc["samples"])


def test_obstruct_samples_need_sample_family():
    for family in ("normal", "file:metric.json"):
        proc = run_cli("obstruct", "s3s3circle", "--p", "2", "--q", "1",
                       "--metric", family, "--samples", "3")
        assert proc.returncode == 2
        assert "sample:SEED" in stderr_error(proc)


def test_obstruct_rejects_starts_below_one():
    proc = run_cli("obstruct", "berger7", "--check", "commuting",
                   "--starts", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--starts must be at least 1" in stderr_error(proc)


def test_obstruct_rejects_samples_below_one():
    proc = run_cli("obstruct", "s3s3circle", "--p", "2", "--q", "1",
                   "--metric", "sample:0", "--samples", "-1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--samples must be at least 1" in stderr_error(proc)


def test_certify_rejects_starts_below_one():
    proc = run_cli("certify", "berger7", "--starts", "-2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--starts must be at least 1" in stderr_error(proc)


@pytest.mark.parametrize("args, message", [
    (["berger7", "--max-iters", "-1"], "--max-iters must be at least 0"),
    # dim p = 1: no plane, so no verdict
    (["sphere-so", "--n", "1"], "sphere-so n=1 has dim p = 1"),
])
def test_certify_rejects_parameters_that_void_the_verdict(args, message):
    proc = run_cli("certify", *args, "--starts", "2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in stderr_error(proc)


@pytest.mark.parametrize("command, bad", [
    (["metric"], math.inf),
    (["curvature", "--plane", "random:1"], math.inf),
    (["certify", "--starts", "2"], math.nan),
])
def test_non_finite_metric_files_are_usage_errors(tmp_path, command, bad):
    matrix = [[bad if i == j == 0 else float(i == j) for j in range(7)]
              for i in range(7)]
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"matrix": matrix}))
    proc = run_cli(command[0], "berger7", "--metric", f"file:{path}",
                   *command[1:])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "non-finite" in stderr_error(proc)


@pytest.mark.parametrize("command", [
    ["curvature", "--plane", "random:1"],
    ["certify", "--starts", "2"],
])
def test_non_invariant_metric_files_are_usage_errors(tmp_path, command):
    # 1e-10·diag(1, ..., 7) is symmetric and positive definite, but commutes
    # with no isotropy action of berger7; its residual is small only in
    # absolute terms
    matrix = [[1e-10 * (i + 1) if i == j else 0.0 for j in range(7)]
              for i in range(7)]
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"matrix": matrix}))
    proc = run_cli(command[0], "berger7", "--metric", f"file:{path}",
                   *command[1:])
    assert proc.returncode == 2
    assert proc.stdout == ""
    error = stderr_error(proc)
    assert str(path) in error and "does not commute" in error


def test_a_large_multiple_of_a_metric_file_certifies_as_the_metric(tmp_path):
    # the metric test is relative to the scale, and curvature scales as 1/λ
    matrix = stdout_doc(run_cli("metric", "berger7", "--metric",
                                "sample:0"))["matrix"]
    path = tmp_path / "large.json"
    path.write_text(json.dumps({"matrix": [[1e8 * x for x in row]
                                           for row in matrix]}))
    unit, large = (stdout_doc(run_cli("certify", "berger7", "--metric", spec,
                                      "--starts", "4"))
                   for spec in ("sample:0", f"file:{path}"))
    assert unit["verdict"] == large["verdict"] == "positive"
    assert abs(1e8 * large["min_sectional"] - unit["min_sectional"]) <= 1e-9


def test_obstruct_quiet_on_positive_space():
    proc = run_cli("obstruct", "berger7", "--check", "commuting",
                   "--starts", "4")
    assert proc.returncode == 0
    doc = stdout_doc(proc)
    assert doc["obstruction_found"] is False


def test_witness_documents_record_how_they_were_decided():
    proc = run_cli("obstruct", "sp2circle", "--p", "3", "--q", "1",
                   "--metric", "sample:1", "--check", "commuting")
    assert proc.returncode == 0
    witness = stdout_doc(proc)["checks"]["commuting"]
    assert witness["found"] is False and witness["decided"] == "exact"
    assert "proved empty" in witness["message"]
    proc = run_cli("obstruct", "berger7", "--check", "commuting",
                   "--starts", "2")
    assert stdout_doc(proc)["checks"]["commuting"]["decided"] == "search"


def _main_in_process(*argv):
    import contextlib
    import io
    from homcurv.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_parser_is_built_once_and_left_unchanged(monkeypatch):
    from homcurv.cli import build_parser
    monkeypatch.setenv("COLUMNS", "80")
    assert build_parser() is build_parser()
    # an option given to one command does not stick to the next
    _, first, _ = _main_in_process("obstruct", "berger7", "--check",
                                   "commuting", "--starts", "2")
    _, again, _ = _main_in_process("obstruct", "berger7", "--check",
                                   "commuting")
    assert "at 2 starts" in json.loads(first)["checks"]["commuting"]["message"]
    assert "at 32 starts" in json.loads(again)["checks"]["commuting"]["message"]
    # usage errors and help read as from a fresh process
    for argv in (["obstruct", "stiefel", "--check", "bogus"],
                 ["certify", "--help"]):
        fresh = run_cli(*argv)
        for _ in range(2):
            assert _main_in_process(*argv) == (fresh.returncode, fresh.stdout,
                                               fresh.stderr)


@pytest.mark.parametrize("argv", [
    ["catalog"],
    ["build", "berger7"],
    ["decompose", "berger7"],
    ["metric", "berger7", "--metric", "sample:2"],
    ["curvature", "berger7", "--metric", "sample:2", "--plane", "random:5"],
    ["obstruct", "berger7", "--metric", "sample:2", "--starts", "2"],
    ["certify", "berger7", "--starts", "4"],
])
def test_stdout_and_out_file_hold_the_same_bytes(tmp_path, monkeypatch, argv):
    import types
    import homcurv.certify
    # a frozen clock gives both certify runs the same wall_time
    monkeypatch.setattr(homcurv.certify, "time",
                        types.SimpleNamespace(perf_counter=lambda: 0.0))
    path = tmp_path / "doc.json"
    code, out, err = _main_in_process(*argv)
    assert code == 0 and out.startswith("{")
    assert _main_in_process(*argv, "--out", str(path)) == (0, "", err)
    assert path.read_text() == out


def test_obstruct_samples_build_one_commutant_basis(monkeypatch):
    import homcurv.metrics
    real = homcurv.metrics.symmetric_commutant_basis
    builds = []
    monkeypatch.setattr(homcurv.metrics, "symmetric_commutant_basis",
                        lambda space: builds.append(space.label) or real(space))
    code, out, _ = _main_in_process("obstruct", "s3s3circle", "--p", "2",
                                    "--q", "1", "--metric", "sample:7",
                                    "--samples", "5", "--check", "commuting")
    assert code == 0 and json.loads(out)["witness_count"] == 5
    assert len(builds) == 1


def test_obstruct_symmetrize_reports_phase():
    proc = run_cli("obstruct", "sp2circle", "--p", "3", "--q", "1",
                   "--metric", "sample:2", "--check", "symmetrize")
    assert proc.returncode == 0
    doc = stdout_doc(proc)
    sym = doc["checks"]["symmetrize"]
    assert sym["residual"] < 1e-8
    assert abs(sym["det_involution"] + 1.0) < 1e-10


def test_obstruct_symmetrize_wrong_space_is_usage_error():
    proc = run_cli("obstruct", "stiefel", "--check", "symmetrize")
    assert proc.returncode == 2


def test_certify_reports_verdicts():
    proc = run_cli("certify", "berger7", "--starts", "8")
    assert proc.returncode == 0
    doc = stdout_doc(proc)
    assert doc["verdict"] == "positive"
    assert abs(doc["min_sectional"] - 0.05) < 1e-4
    assert doc["metric_provenance"] == "normal"
    assert doc["draw_scheme"] == 3

    # a conclusive nonpositive finding is still a successful run
    proc = run_cli("certify", "wallach6", "--starts", "8")
    assert proc.returncode == 0
    doc = stdout_doc(proc)
    assert doc["verdict"] == "nonpositive-witness"
    assert "not a certificate" in doc["disclaimer"]


def test_output_flag_writes_file(tmp_path):
    out = tmp_path / "doc.json"
    proc = run_cli("build", "berger7", "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    doc = json.loads(out.read_text())
    assert doc["label"] == "berger7"


@pytest.mark.parametrize("command", [
    ["certify", "wallach6", "--starts", "4"],
    ["obstruct", "berger7", "--check", "commuting", "--starts", "2"],
])
def test_plane_search_documents_record_their_seed(command):
    assert stdout_doc(run_cli(*command))["seed"] == 0
    assert stdout_doc(run_cli(*command, "--seed", "9"))["seed"] == 9


@pytest.mark.parametrize("command", [
    ["obstruct", "berger7", "--check", "rank"],
    ["obstruct", "berger7", "--check", "commuting", "--starts", "2"],
    ["certify", "berger7", "--starts", "2"],
])
def test_negative_seed_is_a_usage_error(command):
    # the flag is named, not the draw key it would have become, and a
    # command that draws nothing does not record it either
    proc = run_cli(*command, "--seed", "-1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "argument --seed: must be at least 0, got -1" in stderr_error(proc)


def test_obstruct_rank_reads_no_metric():
    proc = run_cli("obstruct", "berger7", "--check", "rank",
                   "--metric", "file:/nonexistent.json")
    assert proc.returncode == 0
    doc = stdout_doc(proc)
    assert doc["checks"] == {} and doc["rank"]["parity_consistent"] is True
    proc = run_cli("obstruct", "berger7", "--check", "rank",
                   "--metric", "sample:0", "--samples", "3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--samples needs a check that reads the metric" in stderr_error(proc)


def test_curvature_document_names_its_inputs():
    proc = run_cli("curvature", "berger7", "--metric", "sample:2",
                   "--plane", "random:5")
    doc = stdout_doc(proc)
    assert doc["metric_provenance"] == "sample:2"
    assert doc["plane"] == "random:5"


def test_suite_filter_runs_selected_criteria():
    proc = run_cli("suite", "--only", "rank-parity,round-sphere")
    assert proc.returncode == 0
    lines = [l for l in proc.stdout.splitlines() if l.startswith("[")]
    assert len(lines) == 2
    assert all(l.startswith("[PASS]") for l in lines)
    assert "2/2 acceptance criteria passed" in proc.stdout


def test_suite_filter_without_match_is_usage_error():
    proc = run_cli("suite", "--only", "zzz")
    assert proc.returncode == 2
    assert stderr_error(proc).startswith("no acceptance criteria match 'zzz'")
