"""Count the code lines of ``src/``, module by module.

A code line is a physical line that holds at least one token of code: no
blank line, no comment-only line and no docstring line.  A docstring is a
string that forms a whole statement: a logical line whose tokens are all
strings.  A token that spans several lines, such as a triple-quoted string
passed as an argument, counts every line it spans.  Run from the
repository root:

    python tests/code_lines.py [DIR]

It prints each module's count, largest first, then the total; DIR defaults
to ``src``.
"""

import pathlib
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path):
    """The number of code lines in the Python file ``path``."""
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
    return len(lines)


def main(root="src"):
    counts = {path.stem: code_lines(path)
              for path in sorted(pathlib.Path(root).rglob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda kv: -kv[1]):
        print(f"{name:14} {count:5}")
    print(f"{'total':14} {sum(counts.values()):5}")


if __name__ == "__main__":
    main(*sys.argv[1:])
