import pytest

from failcast import assemble, evaluate, synth


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
