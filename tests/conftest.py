from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running acceptance checks")


@pytest.fixture(scope="session")
def sonar_surrogate():
    """The shipped 208x60 two-class dataset standing in for real sonar."""
    from widefs.dataset import load_csv

    return load_csv(DATA / "sonar_surrogate.csv", name="sonar_surrogate")


@pytest.fixture(scope="session")
def shipped():
    """The shipped datasets of the manifest, by name."""
    from widefs.harness import load_manifest

    return {d.name: d for d in load_manifest(DATA / "manifest.csv")}


@pytest.fixture(scope="session")
def desk_grid():
    """The in-repo reduced benchmark: 2 datasets x (LDC, SVML) x (SU, RELIEFF)
    x (TOP3, EX10, RND20) x 3 runs, shared across acceptance checks."""
    import time

    from widefs.harness import GridConfig, load_manifest, run_grid

    datasets = load_manifest(DATA / "manifest.csv")
    config = GridConfig(
        datasets=tuple(datasets),
        per_class=10,
        runs=3,
        classifiers=("LDC", "SVML"),
        rankers=("SU", "RELIEFF"),
        selectors=("TOP3", "EX10", "RND20"),
        master_seed=20,
    )
    start = time.perf_counter()
    records = run_grid(config)
    return config, records, time.perf_counter() - start
