"""The package's public names: each module's ``__all__`` lists only names
that exist, ``qlat/__init__.py`` re-exports only names from them, and the
modules that read the domain rules read them through public names."""

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
