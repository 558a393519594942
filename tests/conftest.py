"""Test-suite configuration: stable hypothesis settings for CI."""

from hypothesis import HealthCheck, settings

# Experiments and simulators make individual examples comparatively slow;
# disable wall-clock deadlines and the too-slow health check so the suite
# is deterministic across machines and load conditions.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite the tests/golden/*.json files the selected golden "
             "tests check from this run instead of checking them (say in "
             "CHANGES.md why the outputs moved)")
