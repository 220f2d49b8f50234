"""The package's public names: each module's ``__all__`` lists only names
that exist, and ``qlat/__init__.py`` re-exports only names from them."""

import ast
import importlib
import pkgutil
from pathlib import Path

import qlat


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
