"""tools/count_options.py counts the settable options of the public API."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_options.py"


def _tool():
    spec = importlib.util.spec_from_file_location("count_options", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lists_defaults_and_config_fields(capsys):
    tool = _tool()
    assert tool.main(["--list"]) == 0
    *listed, total = capsys.readouterr().out.splitlines()
    assert int(total) == len(listed) == len(set(listed))
    # A facade keyword with a default, and config fields with and without one.
    assert "repro.DockingEngine(batch_size)" in listed
    assert "repro.PiperConfig(num_rotations)" in listed
    assert "repro.MinimizerConfig(max_iterations)" in listed
    # Callables without defaults contribute nothing.
    assert not any(line.startswith("repro.select_backend(n)") for line in listed)
