"""The package surface: every exported name resolves and has a non-test caller."""

import ast
import importlib
from pathlib import Path

import otmbench

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "otmbench"
# callers of the package: the CLI and the benchmark, never the tests
CALLERS = [SRC / "cli.py", *(ROOT / "perfbench").glob("*.py")]


def test_every_all_entry_resolves():
    # the benchmark tracer wraps each name in a module's __all__ by getattr
    for module in otmbench.__all__:
        mod = importlib.import_module(f"otmbench.{module}")
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, f"otmbench.{module}.__all__ lists missing {missing}"


def _references(node) -> set:
    """Names the code under node refers to: bare names, attributes read as
    x.name and names imported by an import statement.  Strings, comments
    and docstrings do not count."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def _definition_references(tree) -> dict:
    """References in each top-level def, class and assignment, by name."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = _references(node)
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    out[t.id] = _references(node)
    return out


def test_every_all_entry_has_a_caller_outside_the_tests():
    """Each exported name is referred to in code (a name, an attribute or
    an import) by the CLI, the benchmark, another module of the package,
    or the definition of another exported name of its own module; a name
    only tests reach, the acceptance gate included, belongs in the tests,
    and a mention in a comment or docstring is not a caller."""
    callers = set().union(*(_references(ast.parse(p.read_text())) for p in CALLERS))
    unused = []
    for module in otmbench.__all__:
        path = SRC / f"{module}.py"
        exported = set(getattr(importlib.import_module(f"otmbench.{module}"), "__all__", ()))
        others = set().union(*(_references(ast.parse(p.read_text()))
                               for p in SRC.glob("*.py") if p != path))
        own = {n: refs for n, refs in _definition_references(ast.parse(path.read_text())).items()
               if n in exported}
        for name in sorted(exported):
            if not (name in callers or name in others
                    or any(name in refs for n, refs in own.items() if n != name)):
                unused.append(f"{module}.{name}")
    assert not unused, f"exported but reached only by tests: {unused}"


def _attributes(node, skip=None) -> set:
    """Names read as x.name anywhere in node outside the subtree skip."""
    if node is skip:
        return set()
    out = {node.attr} if isinstance(node, ast.Attribute) else set()
    for child in ast.iter_child_nodes(node):
        out |= _attributes(child, skip)
    return out


def test_every_public_method_has_a_caller_outside_the_tests():
    """Each public method or property of an exported class is read as an
    attribute in the CLI, the benchmark, another module of the package, or
    its own module outside its own definition; the tests, the acceptance
    gate included, do not count.  Dataclass and NamedTuple fields are
    declarations, not defs, and are exempt.  Attributes are matched by
    name alone, so a name that two classes share (all_ok, say) passes when
    either is read."""
    callers = set().union(*(_attributes(ast.parse(p.read_text())) for p in CALLERS))
    unused = []
    for module in otmbench.__all__:
        path = SRC / f"{module}.py"
        mod = importlib.import_module(f"otmbench.{module}")
        others = set().union(*(_attributes(ast.parse(p.read_text()))
                               for p in SRC.glob("*.py") if p != path))
        tree = ast.parse(path.read_text())
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in getattr(mod, "__all__", ())):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                        and node.name not in callers | others
                        and node.name not in _attributes(tree, skip=node)):
                    unused.append(f"{module}.{cls.name}.{node.name}")
    assert not unused, f"public methods reached only by tests: {unused}"


# private names one module of the package imports from another, each shared
# on purpose: an input check, a sampling guard, the single-word decode core,
# the outcome-table builder, the quantity table, the coin-bit reader
_SHARED_PRIVATE_NAMES = {
    "errors._check_int", "f2codes._check_trials", "f2codes._decode_index",
    "povmsearch._outcome_table",
    "povmsearch._QUANTITY", "qrac._check_alpha", "seeds._coin_bits",
}


def test_private_names_cross_modules_only_by_allowlist():
    """Every `from .module import _name` in src/ is on the allowlist, and
    every allowlisted name is still imported: a private helper a second
    module needs is shared on purpose, or it moves to its one owner."""
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found |= {f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")}
    assert found == _SHARED_PRIVATE_NAMES
