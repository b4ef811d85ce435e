"""Time one cold grader set-up in a fresh interpreter.

Usage: python3 setup_probe.py SPEC WORKDIR JOBS

Prints the seconds from the start of ``load_spec`` to a constructed
``GradingSession``. Imports are done before the clock starts; caches the
grader fills on first use are empty, as they are for a user's first run.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gradepipe import GradingSession, load_spec  # noqa: E402


def main() -> None:
    spec_path, workdir, jobs = Path(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3])
    start = time.perf_counter()
    spec = load_spec(spec_path)
    session = GradingSession(
        spec,
        workspace_root=workdir / "workspace",
        reports_dir=workdir / "reports",
        quarantine_dir=workdir / "quarantine",
        log_path=workdir / "grading.log",
        jobs=jobs,
    )
    elapsed = time.perf_counter() - start
    session.close()
    print(repr(elapsed))


if __name__ == "__main__":
    main()
