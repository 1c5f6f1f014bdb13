"""Every module of the package is reachable by static imports from the
entry points: the library API, the driver entry, the benchmark script
and the job CLI. A module nothing imports is dead code. No Ray."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = "geofileops_ray"
ROOTS = [f"{PKG}.api", "__ray_entry__", "bench", f"{PKG}.job"]


def _path_of(module: str) -> Path | None:
    base = ROOT.joinpath(*module.split("."))
    for p in (base.with_suffix(".py"), base / "__init__.py"):
        if p.is_file():
            return p
    return None


def _imported(module: str, path: Path) -> set[str]:
    """Modules named by every import statement in the file, lazy
    imports inside functions included; ``from m import n`` names both
    ``m`` and ``m.n`` (``n`` may be a submodule)."""
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    out: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parent = ".".join(parts[: len(parts) - node.level + 1])
                base = f"{parent}.{base}" if base else parent
            out.add(base)
            out.update(f"{base}.{a.name}" for a in node.names)
    return out


def _reached() -> set[str]:
    seen: set[str] = set()
    todo = list(ROOTS)
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        path = _path_of(module)
        if path is None:
            continue
        seen.add(module)
        # importing a.b.c runs a/__init__ and a/b/__init__ first
        parts = module.split(".")
        todo.extend(".".join(parts[:k]) for k in range(1, len(parts)))
        todo.extend(_imported(module, path))
    return seen


def test_every_package_module_is_reached_from_an_entry_point():
    modules = set()
    for p in (ROOT / PKG).rglob("*.py"):
        rel = p.relative_to(ROOT).with_suffix("")
        parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
        modules.add(".".join(parts))
    assert len(modules) > 20
    assert sorted(modules - _reached()) == []
