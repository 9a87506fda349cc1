"""Count the settable options of the public API.

An option is a parameter with a default value of a public callable that
``repro`` or one of its subpackages exports in ``__all__``, plus every
field of an exported config dataclass (a dataclass whose name ends in
``Config``).  Each object counts once, however many packages export it.
The total is tracked change over change: an API that grows knobs shows it.

    PYTHONPATH=src python tools/count_options.py          # prints the total
    PYTHONPATH=src python tools/count_options.py --list   # one line per option
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import pkgutil
from typing import Dict, List, Tuple


def exported_callables() -> List[Tuple[str, object]]:
    """``(qualified export name, object)`` of every public callable, once."""
    root = importlib.import_module("repro")
    packages = ["repro"] + [
        f"repro.{info.name}"
        for info in pkgutil.iter_modules(root.__path__)
        if info.ispkg
    ]
    seen: Dict[int, Tuple[str, object]] = {}
    for name in packages:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if callable(obj) and not attr.startswith("_"):
                seen.setdefault(id(obj), (f"{name}.{attr}", obj))
    return sorted(seen.values(), key=lambda item: item[0])


def options(obj) -> List[str]:
    """The settable option names of one exported callable."""
    if dataclasses.is_dataclass(obj) and obj.__name__.endswith("Config"):
        return [f.name for f in dataclasses.fields(obj) if f.init]
    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):   # builtins and C types without a signature
        return []
    return [p.name for p in params if p.default is not inspect.Parameter.empty]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="print every option")
    args = parser.parse_args(argv)
    total = 0
    for name, obj in exported_callables():
        names = options(obj)
        total += len(names)
        if args.list:
            for option in names:
                print(f"{name}({option})")
    print(total)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
