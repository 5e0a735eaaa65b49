#!/usr/bin/env python3
"""Documentation link/import checker (the ``make docs-check`` target).

Scans ``README.md`` and every Markdown file under ``docs/`` for

* dotted module references like ``repro.cluster`` or
  ``src/repro/core/server.py`` -- the module (or the attribute of a module,
  e.g. ``repro.ttl.estimator``) must be importable from ``src/``, and
* repository-relative file paths like ``benchmarks/bench_table1.py`` or
  ``examples/quickstart.py`` -- the file or directory must exist.

The docstrings of ``benchmarks/*.py`` are scanned as well, for files they
name in prose (``BENCH_ttl.json``, ``docs/benchmarks.md``): a benchmark that
points its reader at a report or a document must point at one that exists.

It additionally enforces *coverage*: every subsystem package listed in
``REQUIRED_MODULES`` must both import and be referenced somewhere in the
scanned documentation, so a new subsystem cannot land undocumented (and a
removed one cannot leave its docs behind).

Finally it flags *orphan modules*: a module under ``src/repro/`` that no
non-test file imports (see ``check_orphan_modules``) is code nothing runs.

Exits non-zero listing every reference that does not resolve, so stale docs
fail CI instead of silently rotting.
"""

from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Inline-code spans are the docs' way of naming code; only those are checked.
CODE_SPAN = re.compile(r"`([^`\n]+)`")
#: A repository-relative path: at least one slash, a known top-level prefix.
PATH_PREFIXES = ("src/", "docs/", "tests/", "benchmarks/", "examples/", "scripts/")
#: A dotted reference into the reproduction package.
MODULE_REFERENCE = re.compile(r"^repro(\.\w+)+$")

#: A file named in a docstring: a bare or slash-separated name ending in a
#: document, data or source suffix (``<placeholder>`` names never match).
FILE_REFERENCE = re.compile(r"(?<![\w<>/.-])[\w./-]+\.(?:md|json|py|txt)\b")

#: Subsystem packages every documentation pass must cover: each must import
#: from ``src/`` *and* be referenced in README.md or docs/.
REQUIRED_MODULES = (
    "repro.bloom",
    "repro.caching",
    "repro.client",
    "repro.cluster",
    "repro.core",
    "repro.db",
    "repro.faults",
    "repro.invalidb",
    "repro.obs",
    "repro.replication",
    "repro.resilience",
    "repro.simulation",
    "repro.simulation.parallel",
    "repro.ttl",
    "repro.ttl.bakeoff",
    "repro.verify",
    "repro.workloads",
)


def iter_markdown_files() -> list:
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("**/*.md")))
    return [path for path in files if path.exists()]


def check_module(reference: str) -> bool:
    """True when ``reference`` imports as a module or module attribute."""
    try:
        importlib.import_module(reference)
        return True
    except ImportError:
        module, _, attribute = reference.rpartition(".")
        if not module:
            return False
        try:
            return hasattr(importlib.import_module(module), attribute)
        except ImportError:
            return False


def check_path(reference: str) -> bool:
    return (REPO_ROOT / reference).exists()


def check_file(path: Path) -> list:
    """All broken references in one Markdown file, as (line, ref, kind)."""
    broken = []
    for line_number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        for span in CODE_SPAN.findall(line):
            candidate = span.strip()
            if MODULE_REFERENCE.match(candidate):
                if not check_module(candidate):
                    broken.append((line_number, candidate, "module"))
            elif (
                candidate.startswith(PATH_PREFIXES)
                and " " not in candidate
                and "<" not in candidate  # template placeholders like <experiment>
            ):
                if not check_path(candidate):
                    broken.append((line_number, candidate, "path"))
    return broken


def check_benchmark_docstrings() -> list:
    """Files named in ``benchmarks/*.py`` docstrings that do not exist, as
    (path, line, ref); names resolve from the repository root or ``benchmarks/``."""
    broken = []
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted((REPO_ROOT / "benchmarks").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            docstring = ast.get_docstring(node) if isinstance(node, documented) else None
            for reference in FILE_REFERENCE.findall(docstring or ""):
                if not check_path(reference) and not (path.parent / reference).exists():
                    broken.append((path, getattr(node, "lineno", 1), reference))
    return broken


def check_required_coverage(markdown_files: list) -> list:
    """Required modules that fail to import or go unmentioned in the docs."""
    corpus = "\n".join(path.read_text(encoding="utf-8") for path in markdown_files)
    problems = []
    for module in REQUIRED_MODULES:
        if not check_module(module):
            problems.append((module, "does not import"))
        elif module not in corpus:
            problems.append((module, "not referenced anywhere in README.md or docs/"))
    return problems


#: Trees whose files count as a module's real users (tests do not).
IMPORTER_TREES = ("src", "examples", "benchmarks", "bench", "scripts")


def _imported_names(path: Path, package: str) -> set:
    """Dotted names ``path`` imports: every module, plus ``module.name`` per
    from-import (a submodule or a re-exported name); relative imports resolve
    against ``package``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            anchor = package.rsplit(".", node.level - 1)[0] if node.level else ""
            base = ".".join(filter(None, (anchor, node.module)))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def check_orphan_modules() -> list:
    """Modules under ``src/repro/`` (``__init__`` and ``__main__`` aside) that
    no non-test file imports -- directly, or through a name their package
    ``__init__`` re-exports; the package's own ``__init__`` does not count.
    A module listed in ``REQUIRED_MODULES`` passes (a documented public
    engine that only tests drive)."""
    src = REPO_ROOT / "src"

    def dotted(path: Path) -> str:
        return ".".join(path.relative_to(src).with_suffix("").parts)

    imports = {}
    for tree in IMPORTER_TREES:
        for path in (REPO_ROOT / tree).rglob("*.py"):
            if "tests" in path.relative_to(REPO_ROOT).parts or path.name.startswith("test_"):
                continue
            # Relative imports occur in src/ only; they resolve against the package.
            module = dotted(path) if tree == "src" else ""
            package = module if path.stem == "__init__" else module.rpartition(".")[0]
            imports[path] = _imported_names(path, package.removesuffix(".__init__"))
    orphans = []
    for path in sorted(src.glob("repro/**/*.py")):
        module = dotted(path)
        if path.stem in ("__init__", "__main__") or module in REQUIRED_MODULES:
            continue
        own_init = path.parent / "__init__.py"
        package = module.rpartition(".")[0]
        wanted = {module} | {
            f"{package}.{name.rpartition('.')[2]}"
            for name in imports.get(own_init, ())
            if name.startswith(module + ".")
        }
        if not any(wanted & names for importer, names in imports.items() if importer != own_init):
            orphans.append(module)
    return orphans


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    failures = 0
    checked = 0
    markdown_files = iter_markdown_files()
    for path in markdown_files:
        checked += 1
        for line_number, reference, kind in check_file(path):
            failures += 1
            relative = path.relative_to(REPO_ROOT)
            print(f"{relative}:{line_number}: unresolved {kind} reference: {reference}")
    for path, line_number, reference in check_benchmark_docstrings():
        failures += 1
        relative = path.relative_to(REPO_ROOT)
        print(f"{relative}:{line_number}: docstring names a missing file: {reference}")
    for module, problem in check_required_coverage(markdown_files):
        failures += 1
        print(f"coverage: required module {module}: {problem}")
    for module in check_orphan_modules():
        failures += 1
        print(f"orphan: no non-test file imports module {module}")
    if failures:
        print(f"docs-check: {failures} broken reference(s) in {checked} file(s)")
        return 1
    print(f"docs-check: OK ({checked} file(s) checked, {len(REQUIRED_MODULES)} modules covered)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
