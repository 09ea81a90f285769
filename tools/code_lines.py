"""Count code lines of decolab's modules: lines that hold a token other than
a comment, a docstring or layout, found with the standard library's tokenize.

A docstring is a string that makes up a whole statement.  Run from anywhere:

    python tools/code_lines.py [directory]

It prints one ``lines  module`` row per module of ``directory`` (default
``src/decolab``) and the total.
"""

import sys
import tokenize
from pathlib import Path

STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}
LAYOUT = STATEMENT_START | {tokenize.ENDMARKER}


def code_lines(path) -> int:
    with open(path, "rb") as fh:  # comments and blank lines dropped first
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            continue
        docstring = (tok.type == tokenize.STRING and tokens[i - 1].type in STATEMENT_START
                     and tokens[i + 1].type == tokenize.NEWLINE)
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "decolab"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
