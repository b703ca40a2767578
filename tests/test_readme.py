"""The README's library example runs and prints what its comments say."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_prints_its_comments(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    block = blocks[0]
    expected = [
        line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")
    ]
    assert expected == ["35 6 9", "True", "(100, 0)", "Mat2(a=0, b=1, c=1, d=0) True"]
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
