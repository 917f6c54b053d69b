"""The python code blocks of README.md run as written, and a line
`print(...)  # text` prints `text`, where `...` in the text stands for
anything."""

import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
COMMENTED_PRINT = re.compile(r"print\(.*\)\s+#\s*(.*)")


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=lambda b: f"block{BLOCKS.index(b)}")
def test_readme_block_prints_what_its_comments_say(block):
    printed = []

    def record(*args, **kwargs):
        out = io.StringIO()
        print(*args, file=out, **kwargs)
        printed.append(out.getvalue().rstrip("\n"))

    # the blocks have no loops, so the i-th print call is the i-th print line
    exec(compile(block, str(README), "exec"), {"print": record})
    lines = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(lines)
    for line, out in zip(lines, printed):
        comment = COMMENTED_PRINT.fullmatch(line)
        if comment:
            pattern = ".*".join(map(re.escape, comment.group(1).split("...")))
            assert re.fullmatch(pattern, out), (line, out)
