"""Line counts of the ``dynkin`` package, per module.

A module's docstring lines are the lines of its module, class and
function docstrings (``ast``).  Its code lines are the lines that hold
any token but a comment or a line break (``tokenize``), less the
docstring lines.  Blank and comment-only lines make up the rest of its
lines.

    python tools/loc.py               # the working tree
    python tools/loc.py --base REV    # and the change since git revision REV
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "src/dynkin"
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> tuple[int, int, int]:
    """Code lines, docstring lines and all lines of one module."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs), len(docs), len(source.splitlines())


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True,
        encoding="utf-8",
    ).stdout


def _source(name: str, rev: str | None) -> str:
    if rev is not None:
        return _git("show", f"{rev}:{PACKAGE}/{name}")
    with open(os.path.join(ROOT, PACKAGE, name), encoding="utf-8") as fh:
        return fh.read()


def counts(rev: str | None = None) -> dict[str, tuple[int, int, int]]:
    """Per module file name, its counts in the working tree or at ``rev``."""
    if rev is None:
        names = os.listdir(os.path.join(ROOT, PACKAGE))
    else:
        names = _git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return {
        name: count(_source(name, rev))
        for name in names if name.endswith(".py")
    }


def table(head: dict, base: dict | None = None) -> list[str]:
    """A header, one row per module and a total row: code, doc and all
    lines, and with ``base`` the change in each."""
    zero = (0, 0, 0)
    then = base or {}
    rows = [(name, head.get(name, zero), then.get(name, zero))
            for name in sorted(set(head) | set(then))]
    rows.append(("total", _sum(r[1] for r in rows), _sum(r[2] for r in rows)))
    header = f"{'module':<14}{'code':>7}{'doc':>7}{'lines':>7}"
    if base is not None:
        header += f"{'Δcode':>8}{'Δdoc':>7}{'Δlines':>8}"
    out = [header]
    for name, now, was in rows:
        line = f"{name:<14}" + "".join(f"{v:>7}" for v in now)
        if base is not None:
            d = [a - b for a, b in zip(now, was)]
            line += f"{d[0]:>+8}{d[1]:>+7}{d[2]:>+8}"
        out.append(line)
    return out


def _sum(triples) -> tuple[int, int, int]:
    return tuple(map(sum, zip(*triples)))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REV",
                        help="also print the change since this git revision")
    args = parser.parse_args(argv)
    base = counts(args.base) if args.base else None
    print("\n".join(table(counts(), base)))


if __name__ == "__main__":
    main()
