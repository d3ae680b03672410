"""Guards against code that nothing in the system uses.

The entry points are the bench CLI (``repro.bench.__main__``), every
file under ``benchmarks/`` and every example.  An AST walk follows their
imports; a ``from package import name`` is resolved through the package
``__init__`` to the module that defines ``name``, so a re-export alone
does not count as a use.  Every non-``__init__`` module under
``src/repro`` must be reached, and every ``GGridConfig`` field read.
"""

import ast
import dataclasses
import re
from pathlib import Path

from repro.config import GGridConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: unreached but kept: the DIMACS ``.gr``/``.co`` reader/writer is the
#: documented way to drop the real datasets in (DESIGN.md §2)
ALLOWED_UNREACHED = {"repro.roadnet.dimacs"}


def _path_of(module: str) -> Path | None:
    for base in (SRC, ROOT):
        stem = base.joinpath(*module.split("."))
        for path in (stem.with_suffix(".py"), stem / "__init__.py"):
            if path.is_file():
                return path
    return None


def _name_of(path: Path) -> str:
    base = SRC if path.is_relative_to(SRC) else ROOT
    parts = list(path.relative_to(base).with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path) -> list[tuple[str, list[str]]]:
    """``(module, names)`` per import; ``names`` is empty for ``import m``.

    The code base uses absolute imports only."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.extend((alias.name, []) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.append((node.module or "", [alias.name for alias in node.names]))
    return out


def _resolve(package: Path, name: str) -> list[str]:
    """The module(s) a package ``__init__`` takes ``name`` from."""
    return [module for module, names in _imports(package) if name in names]


def reached_modules() -> set[str]:
    reached: set[str] = set()
    resolved: set[tuple[str, str]] = set()

    def visit(path: Path) -> None:
        for module, names in _imports(path):
            use(module, names)

    def use(module: str, names: list[str]) -> None:
        path = _path_of(module)
        if path is None:
            return
        if path.name != "__init__.py":
            if module not in reached:
                reached.add(module)
                visit(path)
            return
        for name in names:
            if (module, name) in resolved:
                continue
            resolved.add((module, name))
            if _path_of(f"{module}.{name}") is not None:
                use(f"{module}.{name}", [])
            else:
                for source in _resolve(path, name):
                    use(source, [name])

    entries = [SRC / "repro" / "bench" / "__main__.py"]
    entries += sorted((ROOT / "benchmarks").rglob("*.py"))
    entries += sorted((ROOT / "examples").glob("*.py"))
    for path in entries:
        reached.add(_name_of(path))
        visit(path)
    return {m for m in reached if m.startswith("repro")}


def test_every_module_is_reached():
    modules = {
        _name_of(p)
        for p in (SRC / "repro").rglob("*.py")
        if p.name != "__init__.py"
    }
    assert ALLOWED_UNREACHED <= modules
    unreached = modules - reached_modules() - ALLOWED_UNREACHED
    assert not unreached, f"modules nothing reaches: {sorted(unreached)}"


def test_every_config_field_is_read():
    """Read means ``config.<field>``: a bare ``.<field>`` would also
    match ``TimingModel``'s own ``cpu_workers`` and ``python_speedup``."""
    skip = {SRC / "repro" / "config.py", SRC / "repro" / "persist" / "snapshot.py"}
    text = "\n".join(
        p.read_text() for p in (SRC / "repro").rglob("*.py") if p not in skip
    )
    unread = [
        f.name
        for f in dataclasses.fields(GGridConfig)
        if f.name != "gpu" and not re.search(rf"\bconfig\.{f.name}\b", text)
    ]
    assert not unread, f"GGridConfig fields nothing reads: {unread}"
