"""The README's library example runs against the current API."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1, "expected one python block under 'Library use'"
    return blocks[0]


def test_readme_library_example_runs(capsys):
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.counts.sum() == namespace["cfg"].batch_size
    assert "RecoveryScore" in capsys.readouterr().out
