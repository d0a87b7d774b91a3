"""End-to-end tests for the command line interface.

Each test spawns the CLI as a subprocess so exit codes, stdout/stderr
separation, and environment handling are exercised exactly as a user
would see them.
"""
import json
import math
import os
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "homcurv.cli"]


def run_cli(*args, env_seed=None):
    env = dict(os.environ)
    env.pop("HOMCURV_SEED", None)
    if env_seed is not None:
        env["HOMCURV_SEED"] = env_seed
    return subprocess.run(CLI + list(args), capture_output=True,
                          text=True, env=env)


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
    proc = run_cli("catalog")
    assert proc.stderr.startswith("homcurv 0.1.0 seed=0")


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


def test_build_summary_omits_bases():
    proc = run_cli("build", "berger7", "--summary")
    doc = stdout_doc(proc)
    assert "p_basis" not in doc and "structure_constants" not in doc
    assert doc["dim_p"] == 7


def test_space_flag_and_positional_are_equivalent(tmp_path):
    a = run_cli("build", "--space", "aloffwallach-su3", "--p", "1", "--q", "1")
    b = run_cli("build", "aloffwallach-su3", "--p", "1", "--q", "1")
    assert a.stdout == b.stdout


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


def test_obstruct_fires_on_nonpositive_sample():
    proc = run_cli("obstruct", "stiefel", "--metric", "sample:0",
                   "--check", "min-eigenvalue", "--starts", "8")
    assert proc.returncode == 0
    doc = stdout_doc(proc)
    assert doc["obstruction_found"] is True
    witness = doc["checks"]["min-eigenvalue"]
    assert witness["found"] is True
    assert witness["numerator"] <= 1e-10


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
    proc = run_cli("obstruct", "s3s3circle", "--p", "2", "--q", "1",
                   "--metric", "normal", "--samples", "3")
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

    # a conclusive nonpositive finding is still a successful run
    proc = run_cli("certify", "wallach6", "--starts", "8")
    assert proc.returncode == 0
    doc = stdout_doc(proc)
    assert doc["verdict"] == "nonpositive-witness"
    assert "not a certificate" in doc["disclaimer"]


def test_output_flag_writes_file(tmp_path):
    out = tmp_path / "doc.json"
    proc = run_cli("build", "berger7", "--output", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    doc = json.loads(out.read_text())
    assert doc["label"] == "berger7"


def test_seed_env_and_flag_precedence():
    proc = run_cli("certify", "wallach6", "--starts", "4", env_seed="7")
    assert "seed=7" in proc.stderr.splitlines()[0]
    doc = stdout_doc(proc)
    assert doc["seed"] == 7

    proc = run_cli("certify", "wallach6", "--starts", "4", "--seed", "9",
                   env_seed="7")
    assert "seed=9" in proc.stderr.splitlines()[0]
    assert stdout_doc(proc)["seed"] == 9


def test_bad_seed_env_is_usage_error():
    proc = run_cli("catalog", env_seed="xyz")
    assert proc.returncode == 2
    assert "HOMCURV_SEED" in stderr_error(proc)


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
