"""Count the code lines of each ``src/gradualmech`` module and their total.

A code line holds at least one token that is not a comment, a line break,
an indent or a docstring.  A docstring is a string that forms a statement
on its own, as a module, class or function docstring does.  Run it from
any directory: ``python tests/code_lines.py``.
"""

import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gradualmech"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
STATEMENT_START = {None, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(path):
    """The number of lines of ``path`` that hold code."""
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)]
    lines = set()
    for k, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            continue
        before = tokens[k - 1].type if k else None
        after = tokens[k + 1].type if k + 1 < len(tokens) else None
        if (tok.type == tokenize.STRING and before in STATEMENT_START
                and after == tokenize.NEWLINE):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main():
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
