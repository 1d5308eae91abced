"""Structural validation of the mkdocs documentation site.

``mkdocs build --strict`` runs in CI (mkdocs-material is not a test
dependency); this suite is the local proxy that catches the same classes
of rot without the toolchain: nav entries pointing at missing pages,
pages missing from the nav, broken relative links between pages,
mkdocstrings ``:::`` targets that no longer import, backticked repo paths
that no longer exist, and a benchmarks page out of step with
``BENCHMARK.json``.
"""

import json
import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"
MKDOCS_YML = REPO_ROOT / "mkdocs.yml"


def _load_config():
    # mkdocs.yml may use tags like !!python/name for material extensions;
    # this site's config is plain YAML on purpose, so safe_load suffices.
    return yaml.safe_load(MKDOCS_YML.read_text())


def _nav_files(nav) -> list:
    files = []
    for item in nav:
        if isinstance(item, dict):
            for value in item.values():
                if isinstance(value, str):
                    files.append(value)
                else:
                    files.extend(_nav_files(value))
        elif isinstance(item, str):
            files.append(item)
    return files


def test_mkdocs_config_parses():
    config = _load_config()
    assert config["site_name"]
    assert config["nav"]


def test_every_nav_entry_exists():
    for entry in _nav_files(_load_config()["nav"]):
        assert (DOCS_DIR / entry).is_file(), f"nav entry {entry!r} has no file"


def test_every_page_is_in_the_nav():
    """Strict mkdocs builds warn about orphan pages; keep the nav total."""
    in_nav = set(_nav_files(_load_config()["nav"]))
    on_disk = {
        str(path.relative_to(DOCS_DIR)) for path in DOCS_DIR.rglob("*.md")
    }
    assert on_disk <= in_nav, f"pages missing from nav: {sorted(on_disk - in_nav)}"


_LINK = re.compile(r"\[[^\]]*\]\(([^)]+)\)")


def test_relative_links_resolve():
    for page in DOCS_DIR.rglob("*.md"):
        for target in _LINK.findall(page.read_text()):
            target = target.split("#")[0].strip()
            if not target or "://" in target or target.startswith("mailto:"):
                continue
            resolved = (page.parent / target).resolve()
            assert resolved.exists(), f"{page.relative_to(REPO_ROOT)}: broken link {target!r}"


def test_readme_links_into_docs_resolve():
    readme = REPO_ROOT / "README.md"
    for target in _LINK.findall(readme.read_text()):
        target = target.split("#")[0].strip()
        if not target or "://" in target:
            continue
        assert (REPO_ROOT / target).exists(), f"README.md: broken link {target!r}"


_REPO_PATH = re.compile(r"`((?:bench(?:marks|_records)|examples|src|tests)/[^`\s]*)`")

_PAGES = [REPO_ROOT / "README.md", *sorted(DOCS_DIR.rglob("*.md"))]


@pytest.mark.parametrize(
    "page", _PAGES, ids=[str(page.relative_to(REPO_ROOT)) for page in _PAGES]
)
def test_backticked_repo_paths_exist(page):
    """A page naming a deleted or renamed file fails here, not in a reader's
    shell.  ``path::Test`` selectors are checked by their file; glob
    patterns must match at least one path."""
    missing = []
    for path in _REPO_PATH.findall(page.read_text()):
        path = path.split("::")[0].rstrip(".,:;")
        if not (any(REPO_ROOT.glob(path)) if "*" in path else (REPO_ROOT / path).exists()):
            missing.append(f"`{path}`")
    assert not missing, (
        f"{page.relative_to(REPO_ROOT)} names paths that do not exist:\n" + "\n".join(missing)
    )


_BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
_BENCHMARKS_PAGE = DOCS_DIR / "benchmarks.md"


@pytest.mark.parametrize("workload", [entry["name"] for entry in _BENCHMARK["workloads"]])
def test_benchmarks_page_covers_every_workload(workload):
    """docs/benchmarks.md describes each declared workload and reports it."""
    rows = [line for line in _BENCHMARKS_PAGE.read_text().splitlines()
            if line.startswith(f"| `{workload}` |")]
    assert len(rows) == 2, f"{workload}: expected a description row and a results row"


@pytest.mark.parametrize("metric", [entry["name"] for entry in _BENCHMARK["end_to_end"]])
def test_benchmarks_page_names_every_end_to_end_metric(metric):
    assert f"`{metric}`" in _BENCHMARKS_PAGE.read_text()


def test_mkdocstrings_targets_import():
    """Every ::: target must resolve to a real module attribute — the
    local equivalent of a strict mkdocstrings build failing on a missing
    object."""
    import importlib

    targets = []
    for page in (DOCS_DIR / "reference").rglob("*.md"):
        for line in page.read_text().splitlines():
            if line.startswith("::: "):
                targets.append((page.name, line[4:].strip()))
    assert targets, "no mkdocstrings targets found under docs/reference/"
    for page_name, dotted in targets:
        module_path, _, attribute = dotted.rpartition(".")
        module = importlib.import_module(module_path)
        assert hasattr(module, attribute), (
            f"{page_name}: mkdocstrings target {dotted!r} does not resolve"
        )
