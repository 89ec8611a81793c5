"""The README's library example runs as written, and each line it prints is
the comment on its print call (a comment ending in "..." is a prefix)."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"## Library example\n\n```python\n(.*?)```", text, re.S)
    return block


def test_library_example_prints_its_comments():
    block = library_example()
    expected = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for line, comment in zip(printed, expected):
        if comment.endswith("..."):
            assert line.startswith(comment[: -len("...")])
        else:
            assert line == comment
