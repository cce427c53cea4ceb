"""Static guards on the package surface, read from the source with `ast`.

- Every module-level import is used by its module.
- Every public top-level function and class is named by some other code of
  the package (another module, or another statement of its own module), so
  no library surface is reachable only from tests.  ENTRY_POINTS lists the
  exceptions.
- Every public method, property and dataclass field of a public class is
  read as an attribute by package code outside its own definition, matched
  by name.  MEMBER_ENTRY_POINTS lists the exceptions.
- Every defaulted parameter of a public function or method, and every
  defaulted field of a public dataclass, is set by some package call outside
  its own function, by keyword or by position, matched by name; `cls(...)`
  in a classmethod calls its class.  A value nothing sets is a constant.
  PARAMETER_ENTRY_POINTS lists the exceptions.
- No module reads the environment: settings come from the command line or
  from a call's arguments.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fundcomp"
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}

# Public names that no package code calls, kept as entry points.
ENTRY_POINTS = {
    # the acceptance criteria: the sampled pipeline of the fourier-plumbing
    # check and the theory checks they are stated against
    ("signal_model", "sample"),
    ("theory", "numeric_fundamental_integral"),
    ("theory", "gcd_reduction_check"),
    ("theory", "cauchy_tail_integral"),
}

# Public class members that no package code reads, kept as entry points.
MEMBER_ENTRY_POINTS = {
    # the acceptance fourier-plumbing check
    ("spectral", "Spectrum", "magnitudes"),
}

# Defaulted parameters that no package call sets, kept as entry points.
PARAMETER_ENTRY_POINTS = {
    # the command line: the console script calls main() on sys.argv
    ("cli", "main", "argv"),
    # the acceptance tail-integral check, and the integral at any bin that
    # gcd_reduction_check's bin-1 and bin-G integrals are
    ("theory", "cauchy_tail_integral", "C"),
    ("theory", "numeric_fundamental_integral", "target_bin"),
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


def _attribute_reads(node):
    """How often each attribute name is read anywhere in node."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def _public_members(cls):
    """(name, definition) of each public method, property and dataclass
    field of a class."""
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef):
            name = stmt.name
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            name = stmt.target.id
        else:
            continue
        if not name.startswith("_"):
            yield name, stmt


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


def test_no_module_reads_the_environment():
    reads = []
    for module, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and ast.unparse(node) in (
                    "os.environ", "os.getenv"):
                reads.append(f"{module}: {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{module}: os.{a.name}" for a in node.names
                          if a.name in ("environ", "getenv")]
    assert not reads, f"read the environment: {reads}"


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


def test_every_public_member_is_read():
    reads = sum((_attribute_reads(tree) for tree in MODULES.values()), Counter())
    unread = {(module, cls.name, name)
              for module, tree in MODULES.items()
              for cls in tree.body
              if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
              for name, definition in _public_members(cls)
              if reads[name] == _attribute_reads(definition)[name]}
    unlisted = sorted(".".join(m) for m in unread - MEMBER_ENTRY_POINTS)
    assert not unlisted, f"public but no package code reads them: {unlisted}"
    stale = sorted(".".join(m) for m in MEMBER_ENTRY_POINTS - unread)
    assert not stale, f"listed as member entry points but read: {stale}"


def _decorators(node):
    return {ast.unparse(d.func if isinstance(d, ast.Call) else d)
            for d in node.decorator_list}


def _defaulted_parameters(module, tree):
    """((module, owner, name), callee name, position, definition) of each
    defaulted parameter of a public function or method, self and cls not
    counted, and of each defaulted field of a public dataclass; keyword-only
    parameters have no position."""
    funcs = [(stmt.name, stmt, False) for stmt in tree.body
             if isinstance(stmt, ast.FunctionDef)]
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
            continue
        funcs += [(f"{cls.name}.{stmt.name}", stmt,
                   "staticmethod" not in _decorators(stmt))
                  for stmt in cls.body if isinstance(stmt, ast.FunctionDef)]
        if "dataclass" in _decorators(cls):
            fields = [stmt for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name)]
            for i, field in enumerate(fields):
                if field.value is not None:
                    yield (module, cls.name, field.target.id), cls.name, i, cls
    for owner, func, bound in funcs:
        if func.name.startswith("_"):
            continue
        args = func.args
        positional = (args.posonlyargs + args.args)[bound:]
        for i, arg in enumerate(positional):
            if i >= len(positional) - len(args.defaults):
                yield (module, owner, arg.arg), func.name, i, func
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield (module, owner, arg.arg), func.name, None, func


def _calls(node, enclosing=(), cls_name=None):
    """(callee name, positional count, keyword names, enclosing functions) of
    each call in node; inside a class, `cls(...)` calls that class."""
    if isinstance(node, ast.FunctionDef):
        enclosing += (node,)
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        yield (cls_name if name == "cls" else name, len(node.args),
               {k.arg for k in node.keywords}, enclosing)
    if isinstance(node, ast.ClassDef):
        cls_name = node.name
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, enclosing, cls_name)


def test_every_defaulted_parameter_is_set():
    calls = [c for tree in MODULES.values() for c in _calls(tree)]
    unset = set()
    for module, tree in MODULES.items():
        for key, name, position, definition in _defaulted_parameters(module, tree):
            # a call inside the function itself (recursion) sets nothing
            if not any(callee == name and definition not in enclosing
                       and (key[2] in keywords
                            or position is not None and n_args > position)
                       for callee, n_args, keywords, enclosing in calls):
                unset.add(key)
    unlisted = sorted(f"{m}.{o}({p})" for m, o, p in unset - PARAMETER_ENTRY_POINTS)
    assert not unlisted, f"defaulted but no package call sets them: {unlisted}"
    # a parameter that gained a setter, or is gone, leaves the list
    stale = sorted(f"{m}.{o}({p})" for m, o, p in PARAMETER_ENTRY_POINTS - unset)
    assert not stale, f"listed as parameter entry points but set: {stale}"
