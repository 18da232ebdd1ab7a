"""``src/atiyah4`` holds what the checker runs.

Every public top-level function and class must be loaded somewhere in the
package outside its own definition, or be hooked by the benchmark tracer
(``perfbench/spans.py``), or be pinned below with the reason it stays.
Every private one, and every non-dunder method of a class, must be loaded
somewhere in the package, with no exceptions.  Every defaulted parameter
must be passed at some call in the package, or be pinned below with its
reason.  A helper only tests call belongs in the test file that uses it,
and an input form only tests use belongs in the tests' references.  No
top-level function only returns a name or a literal.
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

#: Defaulted parameters no call in the package passes, each with the reason it stays.
KEPT_DEFAULTS = {
    "run_samples.margin_slack": "acceptance criterion 7 passes it",
    "geometric_distance_samples.seed": "acceptance criterion 9 passes it",
    "main.argv": "perfbench and the tests call cli.main(argv)",
    "monomial.coeff": "monomial is in KEPT_UNUSED",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


def _defaulted_parameters(tree: ast.Module) -> list[tuple[str, int | None, str]]:
    """(callee, position, name) of every defaulted parameter in ``tree``.

    The callee is the bare function name, or the class name for
    ``__init__``; the position skips ``self``, and is None for a
    keyword-only parameter.
    """
    found = []

    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, _FUNCTIONS):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if owner is not None and not static else 0
                callee = owner if child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                for k in range(first, len(positional)):
                    found.append((callee, k - skip, positional[k].arg))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((callee, None, arg.arg))
                visit(child, None)
            else:
                visit(child, owner)

    visit(tree, None)
    return found


def _calls(tree: ast.AST) -> list[tuple[str | None, ast.Call]]:
    """(callee, call) of every call in ``tree``, by the bare name called.

    ``partial(f, *args, **kwargs)`` (or ``functools.partial``) also counts
    as a call of f with those arguments, so the parameters it binds read
    as passed.
    """
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            callee = getattr(func, "id", None) or getattr(func, "attr", None)
            calls.append((callee, node))
            if callee == "partial" and node.args:
                func, *args = node.args
                bound = ast.Call(func=func, args=args, keywords=node.keywords)
                calls.append((getattr(func, "id", None) or getattr(func, "attr", None), bound))
    return calls


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_defaulted_parameter_is_passed_or_pinned():
    parameters, calls = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parameters += _defaulted_parameters(tree)
        calls += _calls(tree)
    assert parameters
    unpassed = {
        f"{callee}.{name}"
        for callee, position, name in parameters
        if not any(c == callee and _passes(call, position, name) for c, call in calls)
    }
    assert unpassed == set(KEPT_DEFAULTS)


def test_a_partial_passes_the_arguments_it_binds():
    tree = ast.parse(
        "def f(a, b=1, *, c=2): pass\n"
        "partial(f, 0, 5)\n"
        "functools.partial(mod.f, c=3)\n"
        "partial(f)\n"
        "partial(g, 0, 5)\n"
    )
    assert _defaulted_parameters(tree) == [("f", 1, "b"), ("f", None, "c")]
    bound = [call for callee, call in _calls(tree) if callee == "f"]
    assert [_passes(call, 1, "b") for call in bound] == [True, False, False]
    assert [_passes(call, None, "c") for call in bound] == [False, True, False]


def test_no_function_only_returns_a_constant():
    # A function that only hands back a module name or a literal is a
    # second name for a constant; the constant itself is the API.
    wrappers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, _FUNCTIONS):
                continue
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]
            if (len(body) == 1 and isinstance(body[0], ast.Return)
                    and isinstance(body[0].value, (ast.Name, ast.Constant))):
                wrappers.append(f"{path.name}:{node.name}")
    assert wrappers == []
