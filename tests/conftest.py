"""Shared fixtures for the test suite.

Trace generation dominates test time, so traces and annotations are
produced once per session via cached fixtures; workload-verification
tests request the same cache.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile

import pytest

from repro.harness import Session
from repro.isa import CodeBuilder
from repro.sim import run_program


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite the golden exhibit JSON under tests/golden/ from "
             "the current code instead of comparing against it")


#: pytest-benchmark's default storage: ``.benchmarks/`` in the working
#: directory, created when the plugin is configured.
_BENCHMARK_STORAGE_DEFAULT = "file://./.benchmarks"


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config):
    """Snapshot the checkout, then give plugins a throwaway home.

    The snapshot is taken before any other plugin is configured, so
    the session-end check in :func:`hermetic_checkout` also sees what
    configuration and collection create.  Hypothesis keeps its example
    database under ``.hypothesis/`` and creates it while test modules
    are collected; pytest-benchmark creates its storage directory when
    it is configured (after this hook).  Both are pointed at one
    temporary directory; an explicit ``--benchmark-storage`` wins.
    """
    from hypothesis.configuration import set_hypothesis_home_dir

    config._checkout_before = None \
        if config.getoption("--update-golden") \
        else _checkout_status(str(config.rootpath))
    config._scratch_home = tempfile.mkdtemp(prefix="repro-pytest-")
    set_hypothesis_home_dir(os.path.join(config._scratch_home,
                                         "hypothesis"))
    if getattr(config.option, "benchmark_storage", None) \
            == _BENCHMARK_STORAGE_DEFAULT:
        config.option.benchmark_storage = "file://" + os.path.join(
            config._scratch_home, "benchmarks")


def pytest_unconfigure(config):
    home = getattr(config, "_scratch_home", None)
    if home is not None:
        shutil.rmtree(home, ignore_errors=True)


def _checkout_status(root: str):
    """``git status --porcelain --ignored`` entries of *root* (build
    caches excluded), or None outside a git checkout.  Untracked and
    ignored files are listed one by one, so a file added inside an
    ignored directory that already exists (``.repro/``) still shows.
    Git lists no empty directory, so the top-level entries of *root*
    are named too: an empty ``.benchmarks/`` shows as well."""
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--ignored",
             "--untracked-files=all"], cwd=root,
            capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    entries = {line for line in proc.stdout.splitlines()
               if "__pycache__/" not in line}
    entries.update(f"entry {name}" for name in os.listdir(root)
                   if name != "__pycache__")
    return entries


@pytest.fixture(scope="session", autouse=True)
def hermetic_checkout(request, tmp_path_factory):
    """Keep run journals out of the checkout, and prove it.

    Every ``repro experiment``/``repro sweep`` a test starts -- in
    process or as a subprocess inheriting the environment -- journals
    under a session tmp dir instead of ``.repro/``.  At session end the
    checkout must show no ``git status --porcelain --ignored`` entry
    (nor top-level entry) that it did not show when pytest was
    configured (``--update-golden`` runs are exempt: rewriting the
    golden files is their purpose).
    """
    root = str(request.config.rootpath)
    before = request.config._checkout_before
    runs = tmp_path_factory.mktemp("runs")
    patch = pytest.MonkeyPatch()
    patch.setenv("REPRO_RUNS_DIR", str(runs / "experiments"))
    patch.setenv("REPRO_SWEEP_RUNS_DIR", str(runs / "sweeps"))
    yield
    patch.undo()
    after = _checkout_status(root)
    if before is not None and after is not None:
        gained = sorted(after - before)
        assert not gained, f"tests wrote into the checkout: {gained}"


@pytest.fixture(scope="session")
def update_golden(request) -> bool:
    """True when this run should regenerate the golden files."""
    return request.config.getoption("--update-golden")


@pytest.fixture(scope="session")
def tiny_session() -> Session:
    """A verifying session over a fast subset at tiny scale."""
    return Session(
        scale="tiny",
        benchmarks=("grep", "compress", "quick", "xlisp", "tomcatv"),
    )


@pytest.fixture(scope="session")
def small_session() -> Session:
    """A verifying session over the full suite at small scale."""
    return Session(scale="small")


@pytest.fixture(scope="session")
def grep_trace(tiny_session):
    """The grep trace at tiny scale (ppc target)."""
    return tiny_session.trace("grep", "ppc")


@pytest.fixture(scope="session")
def compress_trace(tiny_session):
    """The compress trace at tiny scale (ppc target)."""
    return tiny_session.trace("compress", "ppc")


def build_and_run(body, *, target: str = "ppc", data=None, name: str = "t",
                  save=(), frame_words: int = 0):
    """Assemble a one-function program around *body* and run it.

    *body* receives the :class:`CodeBuilder`; *data* (if given) receives
    it first to populate the data segment.  Returns the ExecutionResult.
    """
    builder = CodeBuilder(name, target=target)
    if data is not None:
        data(builder)
    with builder.function("main", save=tuple(save),
                          frame_words=frame_words):
        body(builder)
    program = builder.build()
    return run_program(program, name=name, target=target)
