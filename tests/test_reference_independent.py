import ast
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.py"


def private_imports(source: str) -> list[str]:
    """The underscore-prefixed modules and names the source imports from
    pktsched, dotted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            dotted = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in dotted:
            top, *rest = name.split(".")
            if top == "pktsched" and any(part.startswith("_") for part in rest):
                found.append(name)
    return found


def test_scan_finds_private_imports():
    source = (
        "import pktsched._hidden\n"
        "from pktsched.offline import _walk, opt_schedule\n"
        "from pktsched import _next_open as open_slot\n"
        "from pktsched.core import heavier_first\n"
        "from random import _inst\n"
    )
    assert private_imports(source) == [
        "pktsched._hidden",
        "pktsched.offline._walk",
        "pktsched._next_open",
    ]


def test_reference_imports_no_private_name_from_the_package():
    # The oracles check the package: one that imports its private helpers
    # shares the code it is meant to check.
    assert private_imports(REFERENCE.read_text()) == []
