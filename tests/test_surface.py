"""Static guards on the package surface, read from the source with `ast`.

- Every module-level import is used by its module.
- Every public top-level function and class is named by some other code of
  the package (another module, or another statement of its own module), so
  no library surface is reachable only from tests.  ENTRY_POINTS lists the
  exceptions.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fundcomp"
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}

# Public names that no package code calls, kept as entry points.
ENTRY_POINTS = {
    # the acceptance criteria and the README example: the reference draw,
    # the sampled pipeline and the theory checks they are stated against
    ("experiments", "generate_synthetic"),
    ("signal_model", "sample"),
    ("theory", "numeric_fundamental_integral"),
    ("theory", "gcd_reduction_check"),
    ("theory", "cauchy_tail_integral"),
}


def _imported_names(tree):
    """(bound name, import statement) for each module-level import."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                yield (alias.asname or alias.name).split(".")[0], stmt
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                yield alias.asname or alias.name, stmt


def _loaded_names(node):
    """Names read anywhere in node; a class field's own name is no read."""
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _references(module, stmt, sibling_modules):
    """(module, name) pairs that one top-level statement of `module` names:
    `from .spectral import dft`, `spectral.dft` after `from . import
    spectral`, and its own module's names."""
    refs = {(module, name) for name in _loaded_names(stmt)}
    if isinstance(stmt, ast.ImportFrom) and stmt.level == 1 and stmt.module:
        refs |= {(stmt.module, a.name) for a in stmt.names}
    for node in ast.walk(stmt):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in sibling_modules):
            refs.add((node.value.id, node.attr))
    return refs


def test_no_unused_module_imports():
    unused = []
    for module, tree in MODULES.items():
        used = _loaded_names(tree)
        unused += [f"{module}: {name}" for name, _ in _imported_names(tree)
                   if name not in used]
    assert not unused, f"imported but never used: {unused}"


def test_every_public_definition_has_a_caller():
    named_elsewhere = set()
    for module, tree in MODULES.items():
        sibling_modules = {
            name for name, stmt in _imported_names(tree)
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1
            and stmt.module is None and name in MODULES}
        for stmt in tree.body:
            refs = _references(module, stmt, sibling_modules)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                refs.discard((module, stmt.name))  # recursion is no caller
            named_elsewhere |= refs
    public = {(module, stmt.name) for module, tree in MODULES.items()
              for stmt in tree.body
              if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              and not stmt.name.startswith("_")}
    orphans = public - named_elsewhere
    unlisted = sorted(f"{m}.{n}" for m, n in orphans - ENTRY_POINTS)
    assert not unlisted, f"public but no package code names them: {unlisted}"
    # an entry point that gained a caller, or is gone, leaves the list
    stale = sorted(f"{m}.{n}" for m, n in ENTRY_POINTS - orphans)
    assert not stale, f"listed as entry points but not orphans: {stale}"
