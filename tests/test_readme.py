import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_entry_points_import():
    # the README's "Library entry points" block names real functions
    section = README.read_text().split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "import" in block
    exec(compile(block, str(README), "exec"), {})
