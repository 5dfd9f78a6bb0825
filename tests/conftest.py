"""Suite-wide fixtures."""

import os

import pytest


@pytest.fixture(autouse=True, scope="session")
def _hermetic_cache_root(tmp_path_factory):
    """Send every cache and results write of the session to a tmp root.

    Stored models are found by spec, provenance and dataset fingerprint,
    not by code, so a suite writing into the working tree's
    ``.repro_cache/`` would on its next run load models an older build
    trained and never exercise the current training code on those paths.
    A fresh root per session makes a second run behave like the first
    and leaves the working tree untouched.
    """
    root = tmp_path_factory.mktemp("repro-root")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(root / "cache"))
        patch.setenv("REPRO_RESULTS_DIR", str(root / "results"))
        yield


@pytest.fixture(autouse=True)
def _isolate_repro_env():
    """Undo ``REPRO_*`` env mutations after every test.

    The CLI's ``--cache-dir``/``--results-dir``/``--obs`` flags export
    ``REPRO_CACHE_DIR``/``REPRO_RESULTS_DIR``/``REPRO_OBS`` process-wide
    (so worker processes resolve the same settings); without this
    fixture a test that exercises those flags would silently redirect
    every later test's caches, results or tracing.
    """
    variables = (
        "REPRO_CACHE_DIR",
        "REPRO_RESULTS_DIR",
        "REPRO_OBS",
        "REPRO_OBS_TRACE",
        "REPRO_OBS_SLOW_MS",
    )
    saved = {var: os.environ.get(var) for var in variables}
    yield
    for var, value in saved.items():
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value


@pytest.fixture()
def engine_passes(monkeypatch):
    """Streams per PerfVec engine pass, one entry per pass."""
    from repro.core.perfvec import PerfVec

    passes = []
    original = PerfVec.program_representations

    def counted(self, streams, *args, **kwargs):
        passes.append(len(streams))
        return original(self, streams, *args, **kwargs)

    monkeypatch.setattr(PerfVec, "program_representations", counted)
    return passes
