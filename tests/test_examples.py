"""Smoke tests keeping the example scripts runnable.

Each ``examples/*.py`` script is executed in a subprocess at a small size;
the test checks the exit status, a few landmark strings of the expected
output, and the scripts' own equality markers (every rewriting-vs-scratch
comparison they print must say ``equal=True``).
"""

import os
import subprocess
import sys

_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
EXAMPLES_DIR = os.path.join(_ROOT, "examples")
SRC_DIR = os.path.join(_ROOT, "src")


def run_example(script: str, *arguments: str) -> str:
    # Make the src layout importable in the child regardless of how the
    # parent test run found it (installed package, pythonpath ini, ...).
    environment = dict(os.environ)
    existing = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = SRC_DIR + (os.pathsep + existing if existing else "")
    completed = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, script), *arguments],
        capture_output=True,
        text=True,
        timeout=300,
        env=environment,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


class TestExamples:
    def test_every_example_is_run_here(self):
        """A new ``examples/*.py`` needs a test below, or it can rot unseen."""
        scripts = {name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py")}
        with open(__file__, encoding="utf-8") as handle:
            source = handle.read()
        unrun = sorted(name for name in scripts if f'run_example("{name}"' not in source)
        assert not unrun, f"examples without a test: {unrun}"

    def test_quickstart(self):
        output = run_example("quickstart.py")
        assert "Posts per (age, city)" in output
        assert "SLICE age=35" in output
        assert "DRILL-OUT age" in output
        assert "rewrite[" in output

    def test_blogger_analytics(self):
        output = run_example("blogger_analytics.py", "--bloggers", "60")
        assert "Example 1 cube" in output
        assert "Example 4 cube" in output
        assert "rewriting vs. from-scratch" in output
        comparisons = output.split("OLAP operations")[1].split("Chained")[0]
        assert comparisons.count("equal=True") == 6
        assert "equal=False" not in comparisons

    def test_video_portal_drill(self):
        output = run_example("video_portal_drill.py", "--videos", "40")
        assert "Auxiliary DRILL-IN query" in output
        assert "equal=True" in output
        assert "equal=False" not in output
        assert "Views per browser" in output

    def test_olap_dashboard_session(self):
        output = run_example("olap_dashboard_session.py", "--facts", "100")
        assert "Materialized base cubes" in output
        assert "Session history" in output
        assert "answered by rewriting" in output
