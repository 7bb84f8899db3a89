import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Run in a child so modules the test runner already loaded do not count.
CHILD = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import pktsched, pktsched.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"pktsched"}))
"""


def test_runtime_needs_only_the_standard_library():
    child = subprocess.run(
        [sys.executable, "-I", "-c", CHILD, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert child.stdout == "[]\n"
