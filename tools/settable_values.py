"""Count the independently settable values of src/skewcodes.

A settable value is one of:
  param  a function parameter with a default (lambdas included);
  field  a dataclass field with a default that __init__ takes
         (field(init=False) is not settable);
  arg    one add_argument call of the command-line parser;
  env    one read of the environment (os.environ, os.getenv).
Each value a caller may leave out or change doubles the configurations that
tests and benchmarks must cover, so a change meant to simplify should not
raise the total.

Usage: python3 tools/settable_values.py [SRC_DIR]   (default: src/skewcodes)
Prints one "param field arg env module" line per module, then the totals.
"""

import ast
import pathlib
import sys

KINDS = ("param", "field", "arg", "env")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _name(node):
    """The dotted name of a Name/Attribute chain, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _name(node.value)
        return base and f"{base}.{node.attr}"
    return None


def _is_dataclass(node):
    return any(_name(d.func if isinstance(d, ast.Call) else d)
               in ("dataclass", "dataclasses.dataclass")
               for d in node.decorator_list)


def _field_settable(stmt):
    """True for an annotated class field with a default that __init__
    takes."""
    if not isinstance(stmt, ast.AnnAssign) or stmt.value is None:
        return False
    ann = stmt.annotation
    if isinstance(ann, ast.Subscript):
        ann = ann.value
    if _name(ann) in ("ClassVar", "typing.ClassVar"):
        return False
    value = stmt.value
    if isinstance(value, ast.Call) and _name(value.func) and \
            _name(value.func).split(".")[-1] in ("field", "dc_field"):
        for kw in value.keywords:
            if kw.arg == "init" and isinstance(kw.value, ast.Constant) \
                    and kw.value.value is False:
                return False
        return any(kw.arg in ("default", "default_factory")
                   for kw in value.keywords)
    return True


def count(tree):
    """{kind: number} for one module's AST."""
    out = dict.fromkeys(KINDS, 0)
    for node in ast.walk(tree):
        if isinstance(node, FUNCTIONS):
            args = node.args
            out["param"] += len(args.defaults)
            out["param"] += sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            out["field"] += sum(map(_field_settable, node.body))
        elif isinstance(node, ast.Call):
            name = _name(node.func) or ""
            if name.endswith(".add_argument"):
                out["arg"] += 1
            elif name in ("os.getenv", "os.environ.get", "getenv"):
                out["env"] += 1
        elif isinstance(node, ast.Subscript) and \
                _name(node.value) in ("os.environ", "environ"):
            out["env"] += 1
    return out


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src/skewcodes")
    totals = dict.fromkeys(KINDS, 0)
    print(" ".join(f"{k:>5}" for k in KINDS), "module")
    for path in sorted(root.glob("*.py")):
        counts = count(ast.parse(path.read_bytes()))
        for kind in KINDS:
            totals[kind] += counts[kind]
        print(" ".join(f"{counts[k]:5d}" for k in KINDS), path.name)
    print(" ".join(f"{totals[k]:5d}" for k in KINDS), "per kind")
    print(f"{sum(totals.values()):5d} total")


if __name__ == "__main__":
    main(sys.argv)
