"""The runtime layers import nothing from the paper-model package.

``repro.perf`` holds the paper's serial-host models (Harpertown constants,
Tables 1-2, Figs. 2-3).  Docking, minimization and the execution topology
run on this host and choose backends by rule, so none of their modules may
import it, not even lazily inside a function.
"""

import ast
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).parent
RUNTIME_PACKAGES = ("docking", "minimize", "exec")
FORBIDDEN = "repro.perf"


def _imported_names(source: str, package: str):
    """``(absolute name, line)`` of every module or member imported by
    ``source``; relative imports resolve against ``package``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                parts = package.split(".")
                base = parts[: len(parts) - node.level + 1]
                module = ".".join(base + ([module] if module else []))
            yield module, node.lineno
            for alias in node.names:
                yield f"{module}.{alias.name}", node.lineno


def _violations(source: str, package: str):
    return [
        (name, line)
        for name, line in _imported_names(source, package)
        if name == FORBIDDEN or name.startswith(FORBIDDEN + ".")
    ]


@pytest.mark.parametrize("subpackage", RUNTIME_PACKAGES)
def test_runtime_package_does_not_import_perf(subpackage):
    modules = sorted((PACKAGE_ROOT / subpackage).rglob("*.py"))
    assert modules, subpackage
    found = []
    for path in modules:
        package = ".".join(path.parent.relative_to(PACKAGE_ROOT.parent).parts)
        found += [
            f"{path.relative_to(PACKAGE_ROOT.parent)}:{line} imports {name}"
            for name, line in _violations(path.read_text(), package)
        ]
    assert not found, "\n".join(found)


@pytest.mark.parametrize(
    "source",
    [
        "import repro.perf.cpumodel\n",
        "from repro.perf.cpumodel import CpuModel\n",
        "from repro import perf\n",
        "def f():\n    from ..perf import speedup\n",
    ],
)
def test_scanner_sees_every_import_form(source):
    assert _violations(source, "repro.docking")
    assert not _violations("from ..docking import batched\n", "repro.minimize")
