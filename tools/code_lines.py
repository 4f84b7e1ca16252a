"""Count code lines: lines that hold a token other than a comment or docstring.

Usage: python tools/code_lines.py PATH [PATH ...]

Each PATH is a Python file or a directory searched for *.py files.  Prints
each file's count, then the total.  A docstring is a string statement.
"""

import pathlib
import sys
import tokenize

LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: pathlib.Path) -> int:
    with path.open("rb") as fh:
        tokens = [tok for tok in tokenize.tokenize(fh.readline) if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    rows = set()
    for prev, tok, nxt in zip(tokens, tokens[1:], tokens[2:]):
        docstring = tok.type == tokenize.STRING and prev.type in LAYOUT and nxt.type == tokenize.NEWLINE
        if tok.type not in LAYOUT and not docstring:
            rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def main(paths: list[str]) -> None:
    total = 0
    for arg in paths:
        root = pathlib.Path(arg)
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            count = code_lines(path)
            total += count
            print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
