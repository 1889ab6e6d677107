"""Count the code lines of src/skewcodes: lines that hold a token other than
a comment, and are not part of a docstring.  Blank lines, comment lines and
docstring lines are left out.

Usage: python3 tools/code_lines.py [SRC_DIR]   (default: src/skewcodes)
Prints one "count module" line per module, then the total.
"""

import ast
import pathlib
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers spanned by the docstrings of the module, its
    classes and its functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(path):
    with open(path, "rb") as fh:
        lines = set()
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    tree = ast.parse(pathlib.Path(path).read_bytes())
    return len(lines - docstring_lines(tree))


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src/skewcodes")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv)
