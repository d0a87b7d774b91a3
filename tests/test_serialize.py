"""Document serialization and bit-exact round-trips."""
import dataclasses
import json
import os

import numpy as np
import pytest

from homcurv import catalog_build
from homcurv.acceptance import CriterionResult
from homcurv.certify import STOP_REASONS, CertifyReport, certify
from homcurv.cli import main
from homcurv.metrics import normal_metric
from homcurv.obstructions import PlaneWitness, RankParity, Sp2Symmetrization
from homcurv.serialize import (
    atomic_write_json,
    certify_document,
    dense_from_triplets,
    encode,
    jsonable,
    load_json,
    space_document,
    space_from_document,
    sparse_triplets,
    witness_document,
)


def through_json(doc):
    return json.loads(json.dumps(doc))


@pytest.mark.parametrize("label,params", [
    ("berger7", {}),
    ("sp2circle", {"p": 3, "q": 1}),
    ("s3s3circle", {"p": 2, "q": 1}),
    ("sphere-so", {"n": 1}),          # dim h = 0 corner
    ("sp3mix", {}),
])
def test_space_round_trip_is_bit_exact(label, params):
    space = catalog_build(label, **params)
    doc = through_json(space_document(space))
    back = space_from_document(doc)
    assert back.label == space.label
    assert back.params == space.params
    assert np.array_equal(back.h_basis, space.h_basis)
    assert np.array_equal(back.p_basis, space.p_basis)
    assert np.array_equal(back.ambient.structure_constants,
                          space.ambient.structure_constants)
    if space.torus_generator is None:
        assert back.torus_generator is None
    else:
        assert np.array_equal(back.torus_generator, space.torus_generator)


def test_summary_document_cannot_be_loaded():
    space = catalog_build("berger7")
    doc = space_document(space)
    del doc["h_basis"], doc["p_basis"]
    with pytest.raises(ValueError, match="lacks bases"):
        space_from_document(doc)


def test_tampered_constants_are_rejected():
    space = catalog_build("berger7")
    doc = through_json(space_document(space))
    doc["structure_constants"]["triplets"][0][-1] += 0.5
    with pytest.raises(ValueError, match="structure constants"):
        space_from_document(doc)


def test_wrong_kind_is_rejected():
    with pytest.raises(ValueError, match="kind"):
        space_from_document({"schema_version": 1, "kind": "metric"})


def test_sparse_triplets_round_trip():
    rng = np.random.default_rng(5)
    dense = rng.standard_normal((4, 4, 4))
    dense[np.abs(dense) < 1.0] = 0.0
    rows = sparse_triplets(dense)
    assert len(rows) == int(np.count_nonzero(dense))
    rebuilt = dense_from_triplets(dense.shape, through_json(rows))
    assert np.array_equal(rebuilt, dense)


def test_jsonable_handles_numpy_scalars():
    out = jsonable({"a": np.float64(1.5), "b": np.int64(2),
                    "c": [np.arange(3)]})
    assert out == {"a": 1.5, "b": 2, "c": [[0, 1, 2]]}
    json.dumps(out)


def test_atomic_write_and_load(tmp_path):
    path = tmp_path / "doc.json"
    atomic_write_json(str(path), {"schema_version": 1, "kind": "test"})
    assert load_json(str(path))["kind"] == "test"
    # no stray temporaries left behind
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_certify_document_carries_stop_reasons():
    space = catalog_build("berger7")
    r = certify(space, normal_metric(space), starts=6, max_iters=40)
    doc = through_json(certify_document(r, provenance="normal"))
    assert doc["stop_reasons"] == list(r.stop_reasons)
    assert len(doc["stop_reasons"]) == doc["starts"] == 6
    assert set(doc["stop_reasons"]) <= set(STOP_REASONS)
    assert doc["converged_starts"] == doc["stop_reasons"].count("converged")


def test_certify_document_records_the_zero_threshold():
    space = catalog_build("berger7")
    r = certify(space, 4.0 * normal_metric(space), starts=2, max_iters=20)
    doc = through_json(certify_document(r, provenance="diag:4"))
    assert doc["zero_tol"] == 1e-9
    assert doc["zero_threshold"] == r.zero_threshold == pytest.approx(2.5e-10)


DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize("name,label,params", [
    ("wallach6", "wallach6", {}),
    ("sp2circle-3-1", "sp2circle", {"p": 3, "q": 1}),
    ("w11", "w11", {}),
])
def test_stored_full_documents_still_reload(name, label, params):
    # written by `homcurv build --full` before the sparse Gram-Schmidt; the
    # reload rebuilds the ambient algebra and requires its structure
    # constants to equal the stored ones exactly
    doc = load_json(os.path.join(DATA, f"{name}.json"))
    back = space_from_document(doc)
    fresh = catalog_build(label, **params)
    assert np.array_equal(back.ambient.structure_constants,
                          fresh.ambient.structure_constants)
    assert np.array_equal(back.ambient.realization.basis_matrices,
                          fresh.ambient.realization.basis_matrices)
    # the isotropy bases come from an SVD, whose last bits may depend on the
    # LAPACK build
    assert np.max(np.abs(back.h_basis - fresh.h_basis)) < 1e-13
    assert np.max(np.abs(back.p_basis - fresh.p_basis)) < 1e-13


def _corrupt_index(doc):
    doc["structure_constants"]["triplets"][0][0] = 999


def _corrupt_arity(doc):
    del doc["structure_constants"]["triplets"][0][1:3]


def _corrupt_basis(doc):
    doc["h_basis"][0][0] = float("nan")


def _corrupt_shape(doc):
    doc["structure_constants"]["shape"] = [5, 5]


def _set(field, value):
    def corrupt(doc):
        doc[field] = value(doc) if callable(value) else value
    return corrupt


@pytest.mark.parametrize("corrupt,field", [
    (_corrupt_index, "structure_constants: a triplet has a non-finite value or an index"),
    (_corrupt_arity, "structure_constants: each triplet must hold 3 indices"),
    (_corrupt_basis, "h_basis has a non-finite entry"),
    (_corrupt_shape, "structure_constants: each triplet must hold 2 indices"),
    # loaded, these escaped as an AttributeError or were coerced silently
    (_set("params", [1, 2]), r"params must be an object of integers, got \[1, 2\]"),
    (_set("params", {"n": 2.7}), "params must be an object of integers, got {'n': 2.7}"),
    (_set("params", {"n": "3"}), "params must be an object of integers, got {'n': '3'}"),
    (_set("params", {"n": True}), "params must be an object of integers, got {'n': True}"),
    (_set("ambient", 5), "ambient must be a string, got 5"),
    (_set("label", 7), "label must be a string, got 7"),
    (_set("notes", None), "notes must be a string, got None"),
    (_set("structure_constants", {"triplets": []}), "structure_constants: 'shape'"),
])
def test_malformed_document_is_a_value_error_naming_the_field(corrupt, field):
    doc = load_json(os.path.join(DATA, "wallach6.json"))
    corrupt(doc)
    with pytest.raises(ValueError, match=field):
        space_from_document(doc)


def _double_p_basis(doc):
    doc["p_basis"] = [[2 * x for x in row] for row in doc["p_basis"]]


def _mix_p_rows(doc):
    doc["p_basis"][0] = [a + b for a, b in zip(*doc["p_basis"][:2])]


def _torus_off_h(doc):
    doc["torus_generator"] = [a + b for a, b in
                              zip(doc["torus_generator"], doc["p_basis"][0])]


def _shorten_rows(field):
    def corrupt(doc):
        doc[field] = [row[:-1] for row in doc[field]]
    return corrupt


@pytest.mark.parametrize("corrupt,message", [
    (_double_p_basis, "rows of h_basis and p_basis are not orthonormal"),
    (_mix_p_rows, "rows of h_basis and p_basis are not orthonormal"),
    (_torus_off_h, "torus_generator does not lie in h"),
    (_shorten_rows("p_basis"), r"p_basis has shape \(7, 9\)"),
    (_shorten_rows("h_basis"), r"h_basis has shape \(3, 9\)"),
    (_set("p_basis", lambda d: [d["p_basis"]]), r"p_basis has shape \(1, 7, 10\)"),
    (_set("torus_generator", lambda d: d["torus_generator"][:-1]),
     r"torus_generator has shape \(9,\)"),
    (_set("torus_generator", lambda d: [d["torus_generator"]]),
     r"torus_generator has shape \(1, 10\)"),
    (_set("dim_k", 11), "dim_k is 11, but the bases give 10"),
    (_set("dim_h", 4), "dim_h is 4, but the bases give 3"),
    (_set("dim_p", 99), "dim_p is 99, but the bases give 7"),
    (_set("has_torus_generator", False),
     "has_torus_generator is False, but the bases give True"),
])
def test_document_whose_bases_do_not_fit_is_rejected(corrupt, message):
    # loaded, each would give a false certify verdict or an internal error
    doc = through_json(space_document(catalog_build("berger7")))
    corrupt(doc)
    with pytest.raises(ValueError, match=message):
        space_from_document(doc)


def test_non_finite_torus_generator_is_rejected():
    doc = through_json(space_document(catalog_build("berger7")))
    doc["torus_generator"][0] = float("inf")
    with pytest.raises(ValueError, match="torus_generator has a non-finite entry"):
        space_from_document(doc)


def test_dense_from_triplets_rejects_fractional_and_non_finite_rows():
    with pytest.raises(ValueError, match="index"):
        dense_from_triplets((2, 2), [[0.5, 1, 1.0]])
    with pytest.raises(ValueError, match="non-finite value"):
        dense_from_triplets((2, 2), [[0, 1, float("nan")]])
    assert dense_from_triplets((2, 2), []).shape == (2, 2)


def test_a_document_that_is_not_an_object_is_rejected():
    with pytest.raises(ValueError, match="a space document is a JSON object"):
        space_from_document([1, 2])


def _with_provenance(names):
    return [names[0], "metric_provenance", *names[1:]]


def _renamed_kind(names):
    return ["witness_kind" if n == "kind" else n for n in names]


def _checks(name):
    return lambda doc: doc["checks"][name]


def _witness(found):
    def pick(doc):
        w = doc["checks"]["min-eigenvalue"]
        assert w["found"] is found
        return w
    return pick


@pytest.mark.parametrize("argv, pick, report, expected", [
    (["certify", "wallach6", "--starts", "4"], None, CertifyReport,
     _with_provenance),
    (["obstruct", "stiefel", "--metric", "sample:1", "--check",
      "min-eigenvalue"], _witness(True), PlaneWitness, _renamed_kind),
    (["obstruct", "sphere-su", "--n", "2", "--metric", "sample:0", "--check",
      "min-eigenvalue"], _witness(False), PlaneWitness, _renamed_kind),
    (["obstruct", "berger7", "--check", "rank"], lambda doc: doc["rank"],
     RankParity, None),
    (["obstruct", "sp2circle", "--p", "3", "--q", "1", "--check", "symmetrize"],
     _checks("symmetrize"), Sp2Symmetrization, None),
    (["suite", "--only", "05-"], lambda doc: doc["criteria"][0],
     CriterionResult, None),
], ids=["certify", "witness-found", "witness-not-found", "rank-parity",
        "symmetrization", "suite-criterion"])
def test_a_reports_document_is_its_fields_in_order(tmp_path, argv, pick,
                                                    report, expected):
    path = tmp_path / "doc.json"
    assert main([*argv, "--out", str(path)]) == 0
    doc = load_json(str(path))
    if pick is not None:
        doc = pick(doc)
    names = [f.name for f in dataclasses.fields(report)]
    if expected is not None:
        names = expected(names)
    # a suite criterion sits inside the suite document, without the tags
    tags = [] if report is CriterionResult else ["schema_version", "kind"]
    assert list(doc) == tags + names


def test_only_the_minimum_and_the_objective_may_be_null():
    space = catalog_build("berger7")
    r = certify(space, normal_metric(space), starts=2, max_iters=5)
    inf = dataclasses.replace(r, min_sectional=float("inf"))
    assert json.loads(encode(certify_document(inf, "normal")))["min_sectional"] is None
    with pytest.raises(ValueError, match="Out of range float"):
        encode(certify_document(dataclasses.replace(r, zero_threshold=float("nan")),
                                "normal"))
    w = PlaneWitness(kind="commuting", found=False, objective=float("inf"),
                     numerator=None, x=None, y=None, message="", decided="exact")
    assert json.loads(encode(witness_document(w)))["objective"] is None
    with pytest.raises(ValueError, match="Out of range float"):
        encode(witness_document(dataclasses.replace(w, numerator=float("nan"))))
