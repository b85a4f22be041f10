"""Executable-documentation checks.

Runs the library's doctest-style examples, validates that every
public module's docstring exists and says something (documentation is
deliverable-grade here, so its presence is tested like behaviour), and
checks that every script the docs, CI and verify skill tell a reader to
run is still in the tree.
"""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro


def all_repro_modules():
    modules = [repro]
    for package_info in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    ):
        modules.append(importlib.import_module(package_info.name))
    return modules


MODULES = all_repro_modules()


class TestDocumentationPresence:
    @pytest.mark.parametrize(
        "module", MODULES, ids=[m.__name__ for m in MODULES]
    )
    def test_module_has_meaningful_docstring(self, module):
        assert module.__doc__, f"{module.__name__} lacks a docstring"
        assert len(module.__doc__.strip()) > 30, (
            f"{module.__name__}'s docstring is a stub"
        )

    def test_public_classes_documented(self):
        undocumented = []
        for module in MODULES:
            exported = getattr(module, "__all__", [])
            for name in exported:
                obj = getattr(module, name)
                if isinstance(obj, type) and not (obj.__doc__ or "").strip():
                    undocumented.append(f"{module.__name__}.{name}")
        assert not undocumented, f"undocumented public classes: {undocumented}"

    def test_public_functions_documented(self):
        import inspect

        undocumented = []
        for module in MODULES:
            exported = getattr(module, "__all__", [])
            for name in exported:
                obj = getattr(module, name)
                if inspect.isfunction(obj) and not (obj.__doc__ or "").strip():
                    undocumented.append(f"{module.__name__}.{name}")
        assert not undocumented, (
            f"undocumented public functions: {undocumented}"
        )


class TestDoctests:
    @pytest.mark.parametrize(
        "module", MODULES, ids=[m.__name__ for m in MODULES]
    )
    def test_doctests_pass(self, module):
        results = doctest.testmod(module, verbose=False)
        assert results.failed == 0, (
            f"{module.__name__}: {results.failed} doctest failures"
        )


REPO_ROOT = Path(__file__).resolve().parent.parent

#: the prose and automation that tell a reader what to run
DOCUMENTS = [
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
    *sorted(f"docs/{path.name}" for path in (REPO_ROOT / "docs").glob("*.md")),
]

#: a runnable script/test path or a root-level BENCH*.json, spelled out
#: in full (globs and <placeholders> do not match)
DOCUMENTED_PATH = re.compile(
    r"(?<![\w/.-])"
    r"((?:benchmarks|scripts|examples|tests)/[\w/.-]*\.py|BENCH\w*\.json)\b"
)


class TestDocumentedPathsExist:
    @pytest.mark.parametrize("document", DOCUMENTS)
    def test_every_mentioned_script_exists(self, document):
        """Deleting a script must take its instructions with it."""
        mentioned = set(
            DOCUMENTED_PATH.findall((REPO_ROOT / document).read_text())
        )
        dead = sorted(p for p in mentioned if not (REPO_ROOT / p).exists())
        assert not dead, f"{document} points at missing files: {dead}"
