"""Report bundle artifacts: digests, payload shape, byte determinism."""

import hashlib
import json
import xml.etree.ElementTree as ET

import pytest

from failcast import assemble, evaluate, report, schema

import helpers


@pytest.fixture(scope="module")
def micro_cv():
    failures = tuple((m, h) for m in (1, 2, 3, 4) for h in (30, 70))
    bundle = helpers.micro_bundle(machines=4, n_hours=96,
                                  failures_at=failures)
    rows = assemble.build_event_stream(bundle)
    folds = evaluate.make_folds(rows, k=2, seed=0)
    return evaluate.evaluate_cv(rows, folds)


@pytest.fixture(scope="module")
def payload(micro_cv):
    return {
        "version": "0.0-test",
        "command": "evaluate",
        "config": {"seed": 0, "folds": 2, "threshold": 0.5},
        "dataset_digest": "sha256:0000",
        "label_semantics": "failure at exactly t+24h",
        "pruning_rule": "relative",
        "runs": {"full": micro_cv},
    }


# --- dataset digest ----------------------------------------------------------

def test_digest_matches_hand_hash(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_bytes(b"alpha\n")
    b.write_bytes(b"beta\n")
    expected = hashlib.sha256()
    for label, path in (("errors", b), ("telemetry", a)):
        expected.update(label.encode() + b"\0")
        expected.update(path.read_bytes() + b"\0")
    got = report.dataset_digest({"telemetry": a, "errors": b})
    assert got == "sha256:" + expected.hexdigest()


@pytest.mark.parametrize("size", [0, 1 << 20, (5 << 19) + 3])
def test_digest_reads_a_file_of_any_size_whole(tmp_path, size):
    # Files are hashed block by block; empty, exactly one block and two and a
    # half blocks hash as one read of the whole file does.
    path = tmp_path / "telemetry.csv"
    content = bytes(range(256)) * (size // 256) + b"x" * (size % 256)
    path.write_bytes(content)
    expected = hashlib.sha256(b"telemetry\0" + content + b"\0")
    assert report.dataset_digest({"telemetry": path}) == "sha256:" + expected.hexdigest()


def test_digest_is_order_independent_but_content_sensitive(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_bytes(b"one")
    b.write_bytes(b"two")
    fwd = report.dataset_digest({"telemetry": a, "errors": b})
    rev = report.dataset_digest({"errors": b, "telemetry": a})
    assert fwd == rev
    b.write_bytes(b"two!")
    assert report.dataset_digest({"telemetry": a, "errors": b}) != fwd
    relabeled = report.dataset_digest({"telemetry": a, "failures": b})
    assert relabeled != fwd


# --- payload -----------------------------------------------------------------

def test_payload_survives_json_round_trip(payload):
    again = json.loads(json.dumps(payload))
    assert again == payload


# --- rendering ---------------------------------------------------------------

EXPECTED_FILES = {"report.json", "summary.txt", "weights_full.csv",
                  "weights_full.svg", "confusion_full.svg"}


def test_bundle_writes_expected_files_byte_identically(tmp_path, payload):
    first = tmp_path / "one"
    second = tmp_path / "two"
    report.write_bundle(first, payload)
    report.write_bundle(second, payload)
    names = {p.name for p in first.iterdir()}
    assert names == EXPECTED_FILES
    for name in sorted(names):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_render_from_loaded_json_reproduces_artifacts(tmp_path, payload):
    first = tmp_path / "one"
    report.write_bundle(first, payload)
    loaded = report.load_bundle_payload(first)
    second = tmp_path / "two"
    second.mkdir()
    report.render(second, loaded)
    for name in EXPECTED_FILES - {"report.json"}:
        assert (second / name).read_bytes() == (first / name).read_bytes(), name


def test_summary_mentions_the_essentials(tmp_path, payload):
    report.write_bundle(tmp_path, payload)
    text = (tmp_path / "summary.txt").read_text()
    assert "failcast 0.0-test" in text
    assert "command:         evaluate" in text
    assert "dataset digest:  sha256:0000" in text
    assert "label semantics: failure at exactly t+24h" in text
    assert f"[full] {len(schema.FEATURE_NAMES)} features:" in text
    assert text.count("fold 0 (train") == 1
    assert "average normalized matrix:" in text
    assert text.endswith("\n")


def test_weights_csv_round_trips_floats_exactly(tmp_path, payload, micro_cv):
    report.write_bundle(tmp_path, payload)
    lines = (tmp_path / "weights_full.csv").read_text().splitlines()
    assert lines[0] == "feature,mean,std,abs_rank"
    by_feature = {w["feature"]: w for w in micro_cv["weights"]}
    assert len(lines) - 1 == len(by_feature)
    for line in lines[1:]:
        feature, mean, std, rank = line.split(",")
        assert float(mean) == by_feature[feature]["mean"]
        assert float(std) == by_feature[feature]["std"]
        assert int(rank) == by_feature[feature]["abs_rank"]


def test_svgs_are_well_formed_xml(tmp_path, payload):
    report.write_bundle(tmp_path, payload)
    for name in ("weights_full.svg", "confusion_full.svg"):
        root = ET.fromstring((tmp_path / name).read_text())
        assert root.tag.endswith("svg")
        rects = [e for e in root.iter() if e.tag.endswith("rect")]
        texts = [e for e in root.iter() if e.tag.endswith("text")]
        assert rects and texts
    weights = (tmp_path / "weights_full.svg").read_text()
    n_entries = len(schema.FEATURE_NAMES) + 1
    assert weights.count("<rect") == n_entries + 1  # + background


def test_confusion_heat_colors_span_white_to_blue(tmp_path):
    run = {"features": ["error_1"],
           "folds": [],
           "average_normalized": [[1.0, 0.0], [0.0, 1.0]],
           "weights": [{"feature": "error_1", "mean": 1.0, "std": 0.0,
                        "abs_rank": 1}]}
    payload = {"version": "0.0-test", "command": "evaluate", "config": {},
               "runs": {"full": run}}
    report.write_bundle(tmp_path, payload)
    svg = (tmp_path / "confusion_full.svg").read_text()
    assert 'fill="#ffffff"' in svg  # zero cells
    assert 'fill="#1f77b4"' in svg  # saturated cells
    assert "1.0000" in svg and "0.0000" in svg


# A literal payload, so the rendered bytes depend on no fit, BLAS or numpy.
GOLDEN_PAYLOAD = {
    "version": "0.0-golden",
    "command": "prune",
    "config": {"folds": 2, "seed": 5, "threshold": 0.5},
    "dataset_digest": "sha256:feed",
    "label_semantics": "point-at-horizon",
    "pruning_rule": "relative",
    "runs": {"reduced": {
        "features": ["error_1", "age"],
        "folds": [
            {"fold_index": 0, "n_train": 120, "n_test": 60,
             "iterations": 7, "converged": True,
             "counts": [[50, 4], [1, 5]],
             "normalized": [[0.9259259259259259, 0.07407407407407407],
                            [0.16666666666666666, 0.8333333333333334]]},
            {"fold_index": 1, "n_train": 110, "n_test": 70,
             "counts": [[61, 2], [3, 4]],
             "normalized": [[0.9682539682539683, 0.031746031746031744],
                            [0.42857142857142855, 0.5714285714285714]]},
        ],
        "average_normalized": [[0.9470899470899471, 0.05291005291005291],
                               [0.2976190476190476, 0.7023809523809523]],
        "weights": [
            {"feature": "constant", "mean": -3.25, "std": 0.125, "abs_rank": 1},
            {"feature": "error_1", "mean": 1.5, "std": 0.1, "abs_rank": 2},
            {"feature": "age", "mean": -0.0625, "std": 0.03125, "abs_rank": 3},
        ],
    }},
}

GOLDEN_SHA256 = {
    "summary.txt": "ff64aa99801bf03f8ad42e70f370f9352a889d56788675132fcd40da94a885e9",
    "weights_reduced.csv": "58c9076145f9374185998e8da05f49bde5a8e8e6fe4a7da5325498aafcd4b97a",
    "weights_reduced.svg": "5ad70243559994c2a8e933b2771affd0b5575b78e19b4a1c58b7c8cf56a845a2",
    "confusion_reduced.svg": "eba46994012f0e3dfb3d57c7d51c1362a764c45e1e7dec37b4a9ab386e3c24e1",
}


def test_rendered_artifacts_match_their_golden_digests(tmp_path):
    report.render(tmp_path, GOLDEN_PAYLOAD)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert digests == GOLDEN_SHA256
