"""Line counts of src/pcrank against its budgets; exits nonzero over budget.

A line holding any token other than a comment or a docstring (a string token
that is a statement by itself) is code.  The package's budget is 1,848
lines; report.py, once it exists, is counted apart against its own 250.
Run from the root of the repository: ``python tools/line_counts.py``.
"""

import pathlib
import sys
import tokenize

layout = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
starts = {tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
package = "src/pcrank (report.py apart)"
budgets = {package: 1848, "src/pcrank/report.py": 250}
counts = {package: [0, 0]}
for path in sorted(pathlib.Path("src/pcrank").glob("*.py")):
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type not in (tokenize.COMMENT, tokenize.NL)]
    code_lines = set()
    for before, token, after in zip(tokens, tokens[1:], tokens[2:]):
        docstring = token.type == tokenize.STRING and before.type in starts and after.type in (
            tokenize.NEWLINE, tokenize.ENDMARKER
        )
        if token.type not in layout and not docstring:
            code_lines.update(range(token.start[0], token.end[0] + 1))
    lines, code = len(path.read_text().splitlines()), len(code_lines)
    print(f"  {path}: {lines:,} lines, {code:,} of them code")
    total = counts.setdefault(path.as_posix() if path.name == "report.py" else package, [0, 0])
    total[0] += lines
    total[1] += code
over = False
for name, (lines, code) in counts.items():
    print(f"{name}: {lines:,} lines, {code:,} of them code, {lines - code:,} docstring, comment or blank; budget {budgets[name]:,}")
    over |= lines > budgets[name]
sys.exit("over the line budget" if over else 0)
