"""``src/atiyah4`` holds what the checker runs.

Every public top-level function and class must be loaded somewhere in the
package outside its own definition, or be hooked by the benchmark tracer
(``perfbench/spans.py``), or be pinned below with the reason it stays.
Every private one, and every non-dunder method of a class, must be loaded
somewhere in the package, with no exceptions.  A helper only tests call
belongs in the test file that uses it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "atiyah4"
SPANS = ROOT / "perfbench" / "spans.py"

#: Public names the package never loads, each with the reason it stays.
KEPT_UNUSED = {
    "geometric_distance_samples": "acceptance criterion 9 draws geometric configurations with it",
    "hopf_map": "the paper's Hopf map h from a spinor to a point of R^3",
    "is_skew_symmetric": "acceptance criterion 9 checks that w4 and v4 are skew with it",
    "monomial": "public ring API next to variable and constant",
    "permute_tuple": "public action API: one relabelling applied to a point",
    "self_test": "acceptance criterion 9 re-derives the group table with it",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _defined_and_loaded() -> tuple[set[str], set[str]]:
    """Top-level function and class names, and every name loaded outside its own definition."""
    defined: set[str] = set()
    loaded: set[str] = set()

    def visit(node: ast.AST, owner: str | None) -> None:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            name = None
        if name is not None and name != owner:
            loaded.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = node.name if isinstance(node, _DEFINITIONS) else None
            if owner is not None:
                defined.add(owner)
            visit(node, owner)
    return defined, loaded


def _hooked() -> set[str]:
    """The names perfbench/spans.py wraps through ``patch(owner, "name", ...)``."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    return {
        node.args[1].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "patch"
        and len(node.args) > 1
        and isinstance(node.args[1], ast.Constant)
        and isinstance(node.args[1].value, str)
    }


def test_every_public_name_is_run_hooked_or_pinned():
    defined, loaded = _defined_and_loaded()
    public = {name for name in defined if not name.startswith("_")}
    assert public - loaded - _hooked() == set(KEPT_UNUSED)


def test_every_private_name_is_run():
    defined, loaded = _defined_and_loaded()
    private = {name for name in defined if name.startswith("_")}
    assert private
    assert private - loaded == set()



def test_every_method_is_run():
    _, loaded = _defined_and_loaded()
    methods = {
        f"{cls.name}.{item.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("__")
    }
    assert methods
    assert {m for m in methods if m.split(".")[1] not in loaded} == set()
