import functools

import pytest

from failcast import assemble, evaluate, ingest, report, synth

import helpers


@pytest.fixture(scope="session", autouse=True)
def digest_matches_its_oracle():
    """Every dataset digest that ``ingest.load_bundle`` feeds in a test equals
    the oracle's, recomputed from the files it read, when it returns."""
    load = ingest.load_bundle

    @functools.wraps(load)
    def checked(telemetry, errors, maintenance, failures, machines, digest=None):
        paths = {"telemetry": telemetry, "errors": errors, "maintenance": maintenance,
                 "failures": failures, "machines": machines}
        loaded = load(**paths, digest=digest)
        if digest is not None:
            assert report.dataset_digest(digest) == helpers.dataset_digest(paths)
        return loaded

    ingest.load_bundle = checked
    yield
    ingest.load_bundle = load


@pytest.fixture(scope="session")
def bench_bundle():
    """The fixed benchmark dataset: seed 7, 20 machines, 180 days."""
    return synth.generate(synth.SynthConfig(machines=20, days=180, seed=7))


@pytest.fixture(scope="session")
def bench_rows(bench_bundle):
    return assemble.build_event_stream(bench_bundle)


@pytest.fixture(scope="session")
def bench_folds(bench_rows):
    return evaluate.make_folds(bench_rows, k=3, seed=42)


@pytest.fixture(scope="session")
def bench_cv(bench_rows, bench_folds):
    """Full-feature cross-validation result on the benchmark dataset."""
    return evaluate.evaluate_cv(bench_rows, bench_folds)


@pytest.fixture(scope="session")
def small_bundle():
    """A cheap bundle for tests that only need plausible data."""
    return synth.generate(synth.SynthConfig(machines=6, days=30, seed=11))


@pytest.fixture(scope="session")
def small_rows(small_bundle):
    return assemble.build_event_stream(small_bundle)
