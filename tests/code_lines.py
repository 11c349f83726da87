"""Count the code lines of ``src/``, module by module and function by
function.

A code line is a physical line that holds at least one token of code: no
blank line, no comment-only line and no docstring line.  A docstring is a
string that forms a whole statement: a logical line whose tokens are all
strings.  A token that spans several lines, such as a triple-quoted string
passed as an argument, counts every line it spans.  A function or method
counts the code lines from its ``def`` to its last line, its decorators
not included and any function nested in it included.  Run from the
repository root:

    python tests/code_lines.py [DIR]

It prints each module's count, largest first, then the total, then the ten
largest functions and methods, named module.function or
module.Class.method; DIR defaults to ``src``.
"""

import ast
import pathlib
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path):
    """The set of the numbers of the code lines in the Python file
    ``path``."""
    lines, statement = set(), []
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIP:
                statement.append(tok)
            elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return lines


def function_lines(path, lines):
    """{qualified name: code lines} for every function and method in the
    Python file ``path``, given its code ``lines``; names are relative to
    the module, as Class.method or outer.inner."""
    counts = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                visit(child, prefix)
                continue
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                counts[name] = len(lines.intersection(
                    range(child.lineno, child.end_lineno + 1)))
            visit(child, name + ".")

    visit(ast.parse(pathlib.Path(path).read_bytes()), "")
    return counts


def main(root="src"):
    counts, functions = {}, {}
    for path in sorted(pathlib.Path(root).rglob("*.py")):
        lines = code_lines(path)
        counts[path.stem] = len(lines)
        functions.update((f"{path.stem}.{name}", count) for name, count
                         in function_lines(path, lines).items())
    for name, count in sorted(counts.items(), key=lambda kv: -kv[1]):
        print(f"{name:14} {count:5}")
    print(f"{'total':14} {sum(counts.values()):5}")
    print("\nlargest functions and methods")
    for name, count in sorted(functions.items(), key=lambda kv: -kv[1])[:10]:
        print(f"{name:34} {count:5}")


if __name__ == "__main__":
    main(*sys.argv[1:])
