"""Every top-level function and class of the package, and every method and
property of those classes, is reached from the program: the console entry
point, a demo, a layer the benchmark tracer wraps or a name the acceptance
gates import.  Helpers only tests call live in the tests (see
tests/oracles.py)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nsclab"


def _names(node) -> set:
    """Every identifier and attribute name read inside node."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _roots(modules: dict) -> set:
    roots = {"main"}  # cli.main, the console script
    for tree in modules.values():  # module-level tables and constants, but not __all__
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                continue
            roots |= _names(node)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        roots |= _names(ast.parse(demo.read_text()))
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    install = next(n for n in tracer.body if isinstance(n, ast.FunctionDef) and n.name == "install")
    for n in ast.walk(install):  # the owners and the attribute names passed to wrap
        if isinstance(n, ast.Constant) and isinstance(n.value, str):
            roots.add(n.value)
    roots |= _names(install)
    gates = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    for n in ast.walk(gates):
        if isinstance(n, ast.ImportFrom) and (n.module or "").startswith("nsclab"):
            roots |= {a.name for a in n.names}
    return roots


def _is_member(node) -> bool:
    """A method or property that must be reached by name: not a dunder."""
    return isinstance(node, ast.FunctionDef) and not (node.name.startswith("__") and node.name.endswith("__"))


def test_package_holds_only_reachable_definitions():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    defs = {}  # name -> [(owner, node, names read when reached)]
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append((mod, node, _names(node)))
            elif isinstance(node, ast.ClassDef):
                # a class reads its bases, decorators, attributes and dunders;
                # each other method or property is reached by its own name
                body = [n for n in node.body if not _is_member(n)]
                shell = set().union(*map(_names, [*node.bases, *node.decorator_list, *body]))
                defs.setdefault(node.name, []).append((mod, node, shell))
                for member in filter(_is_member, node.body):
                    defs.setdefault(member.name, []).append((f"{mod}.{node.name}", member, _names(member)))
    reached, todo = set(), list(_roots(modules))
    while todo:
        for owner, node, names in defs.get(todo.pop(), []):
            if (owner, node.name) not in reached:
                reached.add((owner, node.name))
                todo += names
    unreached = sorted(f"{owner}.{name}" for name, found in defs.items() for owner, _, _ in found if (owner, name) not in reached)
    assert not unreached, f"defined in src/nsclab but reached by no program path: {unreached}"
