"""README.md's python examples run as printed and say what they claim."""
import contextlib
import io
import re
from pathlib import Path

from proxgn import SolveStatus

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.S | re.M)


def run_block(source: str) -> dict:
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(source, str(README), "exec"), namespace)
    return namespace


def test_readme_has_the_quick_start_and_the_radius_example():
    assert len(python_blocks()) == 2


def test_quick_start_converges():
    assert run_block(python_blocks()[0])["report"].status == SolveStatus.CONVERGED


def test_quoted_r_bar_matches_to_its_printed_digits():
    source = python_blocks()[1]
    quoted = re.search(r"r_bar = .*# ~(\d+\.(\d+))", source)
    assert quoted is not None
    r_bar = run_block(source)["r_bar"]
    assert f"{r_bar:.{len(quoted.group(2))}f}" == quoted.group(1)
