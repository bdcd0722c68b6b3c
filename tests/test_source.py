"""Checks on the package source that no installed linter makes."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "treedim"


def unread_parameters(path: Path) -> list[str]:
    """``file:line name(param)`` for each ``def`` parameter, other than
    ``self`` or ``cls``, that the function body never reads.  Reads in
    nested functions count; lambdas are not checked, since the suite and
    evaluator tables give them uniform signatures."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        read = {
            name.id
            for statement in node.body
            for name in ast.walk(statement)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
        }
        found += [
            f"{path.name}:{node.lineno} {node.name}({param.arg})"
            for param in params
            if param is not None and param.arg not in ("self", "cls", *read)
        ]
    return found


def test_every_parameter_is_read():
    assert [hit for path in sorted(SRC.glob("*.py")) for hit in unread_parameters(path)] == []
