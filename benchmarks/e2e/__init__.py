"""Wall-clock benchmark of the serving stack, end to end and per layer.

Run from the repository root::

    python -m benchmarks.e2e run [--workload W] [--seed 7] [--repeat 3]
                                 [--seconds S] [--trace] [--smoke] [--out FILE]
    python -m benchmarks.e2e compare A.json B.json
    python -m benchmarks.e2e measure --workload W --seed N --seconds S --trace 0|1

``run`` prints the end-to-end table (and, with ``--trace``, the per-layer
profile) for each workload; ``compare`` judges two ``run --out`` files
against the bounds in ``BENCHMARK.json``; ``measure`` is the one-run,
one-JSON-line form named by ``BENCHMARK.json``'s ``command``.  See
``README.md`` in this directory for workloads, metrics and caveats.

The library is imported from ``<root>/src`` of the checkout this package
sits in, never from an installed copy, so a benchmark always measures the
source next to it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def require_source() -> None:
    """Put ``<root>/src`` first on ``sys.path``.

    Raises:
        SystemExit: the checkout has no ``src/repro`` package to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2e benchmark: no library source at {SRC / 'repro'}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    """The benchmark contract: workloads, metrics, units, directions, bounds."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)
