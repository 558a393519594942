"""One experiment run per session, shared by the shape and golden tests."""

import pytest

from repro.experiments.common import ExperimentConfig, run_all

CFG = ExperimentConfig(seed=42, scale=0.2)


@pytest.fixture(scope="session")
def experiment_config():
    return CFG


@pytest.fixture(scope="session")
def experiment_tables():
    """``{experiment id: [tables]}`` for every experiment at ``CFG``."""
    return run_all(CFG)
