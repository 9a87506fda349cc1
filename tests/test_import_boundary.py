"""The runtime layers import nothing from the paper-model packages.

``repro.cuda`` (the virtual C1060), ``repro.gpu`` (the paper's kernels on
it) and ``repro.perf`` (the serial-host models, Tables 1-2, Figs. 2-3)
predict the paper's numbers.  Every other subpackage computes on this
host and chooses backends by rule, so none of their modules may import a
paper model, not even lazily inside a function, and ``import repro.api``
loads none of them.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).parent
PAPER_PACKAGES = ("repro.cuda", "repro.gpu", "repro.perf")
RUNTIME_PACKAGES = (
    "api",
    "cache",
    "docking",
    "exec",
    "gateway",
    "geometry",
    "grids",
    "mapping",
    "minimize",
    "obs",
    "structure",
    "util",
    "workers",
)


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


def _is_paper_model(name: str) -> bool:
    return any(name == p or name.startswith(p + ".") for p in PAPER_PACKAGES)


def _violations(source: str, package: str):
    return [
        (name, line)
        for name, line in _imported_names(source, package)
        if _is_paper_model(name)
    ]


def test_every_runtime_package_is_checked():
    """A new subpackage must be classified as runtime or paper model."""
    found = {p.name for p in PACKAGE_ROOT.iterdir() if (p / "__init__.py").exists()}
    paper = {name.split(".")[1] for name in PAPER_PACKAGES}
    assert found - paper - {"analysis"} == set(RUNTIME_PACKAGES)


@pytest.mark.parametrize("subpackage", RUNTIME_PACKAGES)
def test_runtime_package_does_not_import_perf(subpackage):
    """No module of ``subpackage`` imports ``repro.perf``, ``repro.cuda``
    or ``repro.gpu``."""
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


def test_import_api_loads_no_paper_model():
    """Checked in a fresh interpreter: this test process has long since
    imported the paper packages for other tests."""
    code = (
        "import sys, repro.api\n"
        f"paper = {PAPER_PACKAGES!r}\n"
        "print('\\n'.join(sorted(m for m in sys.modules\n"
        "    if any(m == p or m.startswith(p + '.') for p in paper))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=PACKAGE_ROOT.parent,
    )
    assert out.stdout.split() == []


def test_import_api_loads_no_fft_engine():
    """Docking has one runtime path, certified ``direct``: the FFT
    reference kernel is imported by the tests and benchmarks that use it,
    and the batched FFT engine no longer exists.  Checked in a fresh
    interpreter, like the paper-model boundary above."""
    code = (
        "import sys, repro.api\n"
        "print('\\n'.join(m for m in sys.modules if m.startswith('repro.docking.')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=PACKAGE_ROOT.parent,
    )
    loaded = set(out.stdout.split())
    assert "repro.docking.direct" in loaded
    assert not loaded & {"repro.docking.fft", "repro.docking.batched"}


@pytest.mark.parametrize(
    "source",
    [
        "import repro.perf.cpumodel\n",
        "from repro.perf.cpumodel import CpuModel\n",
        "from repro import perf\n",
        "def f():\n    from ..perf import speedup\n",
        "from repro.cuda.device import Device\n",
        "def f():\n    from repro.gpu.docking_pipeline import GpuPiperDocker\n",
        "from .. import cuda\n",
    ],
)
def test_scanner_sees_every_import_form(source):
    assert _violations(source, "repro.docking")
    assert not _violations("from ..docking import direct\n", "repro.minimize")
