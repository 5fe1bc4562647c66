#!/usr/bin/env python
"""Import smoke test: import every ``repro.*`` module, fail on errors.

Catches broken imports (renamed symbols, missing deps, circular imports)
in seconds, without running any test logic. Used as the first CI step.

Run:  python scripts/smoke_imports.py
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def main() -> int:
    import repro
    import repro.agents  # noqa: F401

    # The C codegen backend probes the toolchain; a plain import of the
    # library must neither load it nor run a compiler.
    lazy_leak = "repro.backend.native" in sys.modules

    modules = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    failures = []
    for name in sorted(modules):
        try:
            importlib.import_module(name)
        except Exception:
            failures.append((name, traceback.format_exc()))
    print(f"imported {len(modules) - len(failures)}/{len(modules)} modules")
    for name, tb in failures:
        print(f"\nFAILED: {name}\n{tb}", file=sys.stderr)
    if lazy_leak:
        print("\nFAILED: `import repro, repro.agents` loaded "
              "repro.backend.native (must stay lazily imported)",
              file=sys.stderr)
    return 1 if failures or lazy_leak else 0


if __name__ == "__main__":
    sys.exit(main())
