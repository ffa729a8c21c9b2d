"""The output policy: io.py is the package's one writer.

Every command writes through io.write_text, which is what gives
standard output and an --out file the same bytes. A json.dump(s) call,
or an open() in a write mode, anywhere else would be a second writer.
"""

import ast
from pathlib import Path

import twoslit

SRC = Path(twoslit.__file__).resolve().parent
WRITER = "io.py"
WRITE_MODES = set("wax+")


def open_mode(call):
    """The mode of an open() call: "r" when not given, and a write mode
    when it is not a literal."""
    given = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    if not given:
        return "r"
    return given[0].value if isinstance(given[0], ast.Constant) else "w"


def writes(tree):
    """(line, what) for every JSON encoding and every open() for writing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            yield from ((node.lineno, f"json.{a.name}") for a in node.names
                        if a.name in ("dump", "dumps"))
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in ("dump", "dumps")
                and isinstance(func.value, ast.Name) and func.value.id == "json"):
            yield node.lineno, f"json.{func.attr}"
        if isinstance(func, ast.Name) and func.id == "open" and set(open_mode(node)) & WRITE_MODES:
            yield node.lineno, "open for writing"


def test_only_io_writes_output():
    found = [f"{path.name}:{line}: {what}" for path in sorted(SRC.glob("*.py"))
             if path.name != WRITER for line, what in writes(ast.parse(path.read_text()))]
    assert not found, f"write output through {WRITER}: " + ", ".join(found)


def test_writer_holds_the_calls_it_guards():
    """The search finds what it looks for: io.py encodes JSON and opens
    a file for writing."""
    kinds = {what for _, what in writes(ast.parse((SRC / WRITER).read_text()))}
    assert kinds == {"json.dumps", "open for writing"}
