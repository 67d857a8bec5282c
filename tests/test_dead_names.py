"""No dead names in the package: every imported name is used in its module
or re-exported through ``__all__``, and every top-level function or class is
referenced somewhere in the package or, if public, listed in ``__all__``.
The modules import one another in one direction only (``LAYERS``)."""

import ast
from pathlib import Path

import morsecontrol

SOURCES = {path: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(Path(morsecontrol.__file__).parent.glob("*.py"))}


def _names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_import_is_used():
    unused = []
    for path, tree in SOURCES.items():
        used = _names(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def _unreferenced(public: bool) -> list[str]:
    """The top-level functions and classes, public or private, that no
    module names, reads as an attribute (module._name), imports or lists in
    its ``__all__``."""
    referenced = set()
    for tree in SOURCES.values():
        referenced |= _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    return [f"{path.name}: {node.name}" for path, tree in SOURCES.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("__")
            and node.name.startswith("_") != public
            and node.name not in referenced]


def test_every_private_definition_is_referenced():
    assert _unreferenced(public=False) == []


def test_every_public_definition_is_referenced_or_exported():
    assert _unreferenced(public=True) == []


#: Each module imports from the package only modules before it here, so a
#: helper that two modules share lives in the earlier of them.
LAYERS = ("errors", "czt", "textfmt", "gridfile", "morse", "wavepacket", "wigner",
          "analysis", "config", "cli", "__init__")


def _package_imports(tree: ast.Module):
    """(module, names) of each import from the package, relative or absolute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").partition(".")[0] == "morsecontrol"):
            module = node.module if node.level else node.module.partition(".")[2]
            yield module or "__init__", [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "morsecontrol":
                    yield module or "__init__", []


def test_modules_import_only_earlier_layers():
    assert sorted(LAYERS) == sorted(path.stem for path in SOURCES)
    upward = []
    for path, tree in SOURCES.items():
        for module, names in _package_imports(tree):
            if (path.stem, module, names) == ("cli", "__init__", ["__version__"]):
                continue
            if LAYERS.index(module) >= LAYERS.index(path.stem):
                upward.append(f"{path.stem} imports {module}")
    assert upward == []


def _identifiers(tree: ast.AST) -> set[str]:
    """Every name a module reads, imports or reads as an attribute."""
    found = _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found |= {alias.name for alias in node.names}
    return found


def test_only_wavepacket_reads_the_moment_internals():
    # a state's spreads are decided in one module: the moments a phase-locked
    # state carries, and the grid route of every other state
    internals = {"_moment_rows", "_spread", "_spreads"}
    readers = [f"{path.stem}: {name}" for path, tree in SOURCES.items()
               if path.stem != "wavepacket" for name in sorted(_identifiers(tree) & internals)]
    assert readers == []
