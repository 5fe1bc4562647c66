"""Shared benchmark fixtures/helpers.

Every bench prints the table/series of its paper figure so
``pytest benchmarks/ --benchmark-only -s`` regenerates the evaluation
section row by row. docs/benchmarks.md records paper-vs-measured.
"""

import pathlib

import pytest

_BENCH_DIR = pathlib.Path(__file__).resolve().parent


def pytest_collection_modifyitems(config, items):
    # Everything under benchmarks/ is a perf reproduction, not a unit
    # test; mark slow so `-m "not slow"` gives a fast CI loop.  The hook
    # receives the whole session's items (also tests/ on a repo-root
    # run), so scope the marker to this directory.
    for item in items:
        if _BENCH_DIR in pathlib.Path(str(item.fspath)).resolve().parents:
            item.add_marker(pytest.mark.slow)


def print_table(title, headers, rows):
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows))
              for i, h in enumerate(headers)]
    line = "  ".join(str(h).rjust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).rjust(w) for c, w in zip(row, widths)))


@pytest.fixture
def table():
    return print_table


def shutdown_raylite():
    from repro import raylite
    raylite.shutdown()


@pytest.fixture(autouse=True)
def _raylite_cleanup():
    yield
    shutdown_raylite()
