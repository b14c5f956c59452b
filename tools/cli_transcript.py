#!/usr/bin/env python3
"""Print what the documented CLI commands write, so that refactors can be compared.

The commands are every ``sqmv`` line of the example block under README's
``## CLI`` heading, pipes included, the argument lists of the CLI
determinism tests (``DETERMINISM_ARGV``), the grid and seeded checks of each
standard model (``SAMPLING_ARGV``), an exact evaluation and a witness
re-check on a deeply nested join and on a 3000-deep negation chain, that
chain's parse tree as text and as JSON, a default grid refused on a deeper
join, and the printed and translated forms of an 800-operand sum and of the
join (``DEPTH_ARGV``), catalog names,
element literals, bindings and model lists that the readers accept or refuse
(``READER_ARGV``), and ``classify``, ``classify --json`` and ``audit-axioms``
on every finite catalog view (``FINITE_ARGV``; on the 49- and 81-element
products ``classify`` reads the laws that hold off the factors, while
``audit-axioms`` sweeps composed tapes).  Each runs as ``python -m sqmv.cli`` from the
repository root, with ``src/`` first on the import path.
A pipe runs its stages one after another, each reading the previous stage's
output; it reports the last stage's exit code and stdout, and the stderr of
every stage.  Run from anywhere, with no options:

    python3 tools/cli_transcript.py > transcript.json

It prints one JSON object that maps each command to its exit code, stdout and
stderr.  An output of at most ``VERBATIM_BYTES`` bytes is recorded as it is,
a longer one (such as the parse tree of the 3000-deep chain) by its byte count
and SHA-256, so the transcript stays small enough to diff and still pins every
byte.  Two checkouts print identical bytes when their CLI output agrees.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
sys.path.insert(0, str(ROOT / "src"))

from sqmv.models import FINITE_CATALOG  # noqa: E402

# the argument lists of tests/test_cli.py::TestDeterminism
DETERMINISM_ARGV = [
    ("check-eq", "--model", "square", "--strategy", "random:2000",
     "--seed", "11", "--json", "x (+) y", "-(-x (+) -y)"),
    ("check-entail", "--model", "square@w", "--strategy", "random:1000",
     "--seed", "3", "--json", "--premise", "p", "(x -> x) -> p"),
    ("find-countermodel", "--models", "chain:1,chain:2,square",
     "--strategy", "random:500", "--seed", "5", "--json", "x (+) 1", "1"),
    ("classify", "--model", "ex32-grid", "--json"),
    ("audit-axioms", "--model", "disk", "--strategy", "random:500", "--seed", "1"),
]

STANDARD = ("square", "disk", "interval", "flat-standard")

# plain and explicit grids and seeded draws on each standard model, for an
# equation that holds and one refuted on all but the interval; then an
# entailment that holds and one refuted on each standard view
SAMPLING_ARGV = [
    ("check-eq", "--model", model, "--strategy", *strategy, *equation)
    for model in STANDARD
    for strategy in (("grid",), ("grid:3",), ("random:500", "--seed", "3"))
    for equation in (("x (+) y", "y (+) x"), ("x (+) 0", "x"))
] + [
    ("check-entail", "--model", model + "@w", "--strategy", "random:300", *entailment)
    for model in STANDARD
    for entailment in (("--premise", "p", "(x -> x) -> p"), ("--premise", "p -> q", "q"))
]



def nested_join(depth: int) -> str:
    """y \\/ (y \\/ ... (y \\/ x)), ``depth`` joins deep: as a tree each join
    holds its right operand twice, so the tree has 2^depth copies of x."""
    return "y \\/ (" * depth + "x" + ")" * depth


NESTED_JOIN = nested_join(12)

# the exact value of the join, then an equation refuted on the grid, whose
# witness the exact evaluator re-checks; then the default grid of an 18-deep
# join, whose denominator counts the (+) of every occurrence, so it is refused;
# then the value of a 3000-deep negation chain and the re-checked witness of a
# 3001-deep one, three times the default recursion limit; then an 800-operand
# sum printed and translated, and the translated join, about 2^12 copies of x
LONG_SUM = " (+) ".join(["x"] * 800)
DEPTH_ARGV = [
    ("eval", "--model", "interval", "--let", "x=1/3", "--let", "y=-1/2", NESTED_JOIN),
    ("check-eq", "--model", "interval", "--strategy", "grid:2", NESTED_JOIN, "x"),
    ("check-eq", "--model", "interval", "--strategy", "grid", nested_join(18), "x"),
    ("eval", "--model", "chain:1@w", "--let", "x=1", "~" * 3000 + "x"),
    ("check-eq", "--model", "chain:1@w", "~" * 3001 + "x", "x"),
    ("parse", "--sig", "w", "~" * 3000 + "x"),
    ("parse", "--sig", "w", "--json", "~" * 3000 + "x"),
    ("print", LONG_SUM),
    ("translate", "--to", "w", LONG_SUM),
    ("translate", "--to", "w", NESTED_JOIN),
]

PRODUCT_81 = "product:(product:chain:1,flatten:chain:1:0),(product:chain:1,flatten:chain:1:0)"

# catalog names and element literals; tests/test_cli.py pins what each prints
READER_ARGV = [
    ("classify", "--model", "product:chain:1"),
    ("classify", "--model", "product:chain:1,chain:1,chain:1"),
    ("classify", "--model", "square@w@w"),
    ("classify", "--model", "flatten:0"),
    ("classify", "--model", "flatten:square:0"),
    ("classify", "--model", "product:square,chain:1"),
    ("eval", "--model", "chain:2", "--let", "x=k*", "x"),
    ("eval", "--model", PRODUCT_81, "--let", "x=<<1,0>,<-1,0>>", "x (+) x"),
    ("classify", "--model", "square"),
    ("classify", "--model", "flatten:square:abc"),
    ("eval", "--model", "square", "--let", "x=<1,0", "x"),
    ("eval", "--model", "chain:1", "--let", "x y=1", "x"),
    ("eval", "--model", "chain:1", "--let", "x=0", "--let", "x=1", "x"),
    ("find-countermodel", "--models", "(product:chain:1,flatten:chain:1:0),chain:2",
     "x (+) 0", "x"),
    ("find-countermodel", "--models", "chain:1,,square", "x (+) 0", "x"),
]

# every finite catalog view in both signatures
FINITE_ARGV = [
    argv
    for name in FINITE_CATALOG
    for model in (name, name + "@w")
    for argv in (("classify", "--model", model), ("classify", "--model", model, "--json"),
                 ("audit-axioms", "--model", model))
]

# longer outputs are recorded by their byte count and SHA-256
VERBATIM_BYTES = 2**14


def recorded(text: str):
    """``text`` as the transcript records it."""
    data = text.encode()
    if len(data) <= VERBATIM_BYTES:
        return text
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def readme_examples() -> list[tuple[str, str]]:
    """The ``sqmv`` lines of README's CLI example block as ``(command,
    comment)`` pairs; the comment is the text after ``#``, or empty."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n+```\n(.*?)^```", text, re.M | re.S).group(1)
    out = []
    for line in block.splitlines():
        if line.startswith("sqmv "):
            command, _, comment = line.partition(" #")
            out.append((command.rstrip(), comment.strip()))
    return out


def run(command: str) -> dict:
    """Run one ``sqmv`` command line, pipes included, from the repository
    root: ``{"exit": ..., "stdout": ..., "stderr": ...}``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    stdout = stderr = ""
    for stage in command.split(" | "):  # no sqmv formula holds a "|"
        argv = shlex.split(stage)
        if argv[0] != "sqmv":
            raise ValueError(f"not an sqmv command: {shlex.join(argv)}")
        proc = subprocess.run([sys.executable, "-m", "sqmv.cli", *argv[1:]], cwd=ROOT,
                              input=stdout, capture_output=True, text=True, env=env)
        stdout, stderr = proc.stdout, stderr + proc.stderr
    return {"exit": proc.returncode, "stdout": stdout, "stderr": stderr}


def transcript() -> dict:
    commands = [command for command, _ in readme_examples()]
    commands += [shlex.join(("sqmv", *argv))
                 for argv in DETERMINISM_ARGV + SAMPLING_ARGV + DEPTH_ARGV + READER_ARGV
                 + FINITE_ARGV]
    return {command: {key: recorded(value) if isinstance(value, str) else value
                      for key, value in run(command).items()}
            for command in commands}


def main() -> int:
    print(json.dumps(transcript(), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
