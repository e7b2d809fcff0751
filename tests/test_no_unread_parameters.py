"""Every parameter of every function in the package is read in its body.

A parameter that nothing reads is an option that nothing honours: callers
can pass a value, and the value changes nothing.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hypercouple"


def unread_parameters(source: str) -> list[tuple[str, str]]:
    """(function, parameter) for every parameter, other than self and cls,
    that no expression in the function's body loads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.name, p.arg) for p in params
                  if p.arg not in ("self", "cls") and p.arg not in read]
    return found


def test_finder_sees_a_parameter_only_a_nested_function_reads():
    source = ("def f(a, b, *rest, c=1, **kw):\n"
              "    def g():\n"
              "        return b\n"
              "    a = g()\n"
              "    return kw\n")
    assert unread_parameters(source) == [("f", "a"), ("f", "c"),
                                         ("f", "rest")]


def test_every_parameter_in_the_package_is_read():
    unread = [f"{path.name}: {func}({param})"
              for path in sorted(PACKAGE.glob("*.py"))
              for func, param in unread_parameters(path.read_text())]
    assert not unread, "parameters nothing reads:\n" + "\n".join(unread)
