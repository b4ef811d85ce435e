from __future__ import annotations

import pytest

from gradepipe import blackbox, build
from gradepipe.pipeline import GradingSession
from gradepipe.specfile import load_spec

from support import SPEC_PATH

# These are I/O test-harness classes, not pytest test classes.
blackbox.TestCase.__test__ = False
blackbox.TestResult.__test__ = False
blackbox.TestOutcome.__test__ = False


@pytest.fixture(scope="session")
def leap_spec():
    """The leap-year assignment spec used by the end-to-end tests."""
    return load_spec(SPEC_PATH)


@pytest.fixture
def session_factory(tmp_path):
    """Build grading sessions whose directories all live under tmp_path."""
    sessions = []

    def factory(spec, subdir="run", **overrides):
        root = tmp_path / subdir
        kwargs = dict(
            workspace_root=root / "workspace",
            reports_dir=root / "reports",
            quarantine_dir=root / "quarantine",
            log_path=root / "grading.log",
        )
        kwargs.update(overrides)
        session = GradingSession(spec, **kwargs)
        sessions.append(session)
        return session

    yield factory
    for session in sessions:
        session.close()
    for session in sessions:  # two sessions may share a workspace root
        assert list(session.workspace_root.glob(".session-*")) == [], "close() removes the session's directory"


@pytest.fixture
def plain_environment(tmp_path, monkeypatch):
    """No inherited CPLUS_INCLUDE_PATH or COMPILER_PATH, and no gold: a warm compile sets the include path only."""
    monkeypatch.delenv("CPLUS_INCLUDE_PATH", raising=False)
    monkeypatch.delenv("COMPILER_PATH", raising=False)
    monkeypatch.setattr(build, "_GOLD_DIR", tmp_path / "no-gold")
