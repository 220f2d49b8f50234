"""The package's public names: each module's ``__all__`` lists only names
that exist and that the package's own code reads, ``qlat/__init__.py``
re-exports only names from them, the modules that read the domain rules read
them through public names, and no module imports a name it never reads."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import qlat

SOURCES = sorted(path for path in Path(qlat.__file__).parent.glob("*.py") if path.name != "__init__.py")

# Public names that no code under src/ reads, each kept for the one reason
# given. Any other public name must be read outside its own definition.
UNREAD_PUBLIC = {
    "spectral_decompose": "an operator's spectrum as validated Projections, for library callers",
    "compatibility_verdict": "the five criteria on one pair without the campaigns' stacked format",
    "sequential_disagreements": "one pair's Monte Carlo counts without the padded-stack format",
}


def test_exports_resolve_and_reexports_are_public():
    for info in pkgutil.iter_modules(qlat.__path__):
        module = importlib.import_module(f"qlat.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"qlat.{info.name}.__all__ names missing attributes: {missing}"
    source = ast.parse(Path(qlat.__file__).read_text(encoding="utf-8"))
    imports = [node for node in source.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        exported = importlib.import_module(f"qlat.{node.module}").__all__
        private = [alias.name for alias in node.names if alias.name not in exported]
        assert not private, f"qlat/__init__.py imports names outside qlat.{node.module}.__all__: {private}"


def test_experiments_and_semantics_import_no_private_domains_name():
    # Nor the module itself, through which a private name could be read.
    for name in ("experiments", "semantics"):
        source = ast.parse(Path(qlat.__file__).with_name(f"{name}.py").read_text(encoding="utf-8"))
        private = []
        for node in ast.walk(source):
            if isinstance(node, ast.Import):
                private += [alias.name for alias in node.names if alias.name == "qlat.domains"]
            elif isinstance(node, ast.ImportFrom):
                module = ".".join(["qlat"] * (node.level == 1) + [node.module] * bool(node.module))
                names = [alias.name for alias in node.names]
                if module == "qlat.domains":
                    private += [name for name in names if name.startswith("_")]
                elif module == "qlat" and "domains" in names:
                    private.append("domains")
        assert not private, f"qlat/{name}.py imports from qlat.domains: {private}"


def _reads(node) -> set[str]:
    """The names that the code under ``node`` reads: every loaded ``Name``
    and every ``Attribute``'s attribute name."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def _defines(statement) -> set[str]:
    """The module-level names that a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = getattr(statement, "targets", [getattr(statement, "target", None)])
    return {target.id for target in targets if isinstance(target, ast.Name)}


def test_every_public_name_is_read_in_src_or_listed_with_a_reason():
    statements = [
        (path.stem, statement)
        for path in SOURCES
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    unread = set()
    for path in SOURCES:
        for name in getattr(importlib.import_module(f"qlat.{path.stem}"), "__all__", ()):
            # A name's own definition does not count as a reader.
            readers = (
                statement for module, statement in statements
                if not (module == path.stem and name in _defines(statement))
            )
            if not any(name in _reads(statement) for statement in readers):
                unread.add(name)
    assert len(UNREAD_PUBLIC) <= 3
    listed = set(UNREAD_PUBLIC)
    assert unread <= listed, f"public names that src/ never reads: {sorted(unread - listed)}"
    assert unread == listed, f"listed as unread but read in src/: {sorted(listed - unread)}"


# An import kept on purpose says why after its marker.
_KEPT = re.compile(r"#\s*noqa:\s*F401\b\s*\S")


def test_no_module_imports_a_name_it_never_reads():
    # qlat/__init__.py is left out: its imports are the package's re-exports,
    # which test_exports_resolve_and_reexports_are_public checks.
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        reads = _reads(tree)
        unread = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in reads and not _KEPT.search(lines[alias.lineno - 1]):
                    unread.append(bound)
        assert not unread, f"qlat/{path.name} imports names it never reads: {unread}"
