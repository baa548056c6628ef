"""The README's library example runs against the current API."""
import re
from dataclasses import fields
from pathlib import Path

from fedleak.cli import AttackSpec
from fedleak.fedsim import OPTIMIZERS, SCHEMES, SchemeConfig

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


def scheme_table() -> dict:
    """{scheme: set of optimizers} from the README's scheme table."""
    section = README.read_text().split("Supported schemes and local optimizers:\n", 1)[1]
    table = {}
    for line in section.lstrip("\n").splitlines():
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        scheme = re.fullmatch(r"`(\w+)`", cells[0])
        if scheme:
            table[scheme.group(1)] = set(re.findall(r"`(\w+)`", cells[1]))
    return table


def test_readme_scheme_table_matches_config():
    table = scheme_table()
    assert sorted(table) == sorted(SCHEMES)
    for scheme in SCHEMES:
        for optimizer in OPTIMIZERS:
            try:
                SchemeConfig(scheme=scheme, optimizer=optimizer)
                accepted = True
            except ValueError:
                accepted = False
            assert (optimizer in table[scheme]) == accepted, (scheme, optimizer)


def test_readme_attack_params_paragraph_names_every_field():
    # AttackSpec, the config's attack section, holds AttackParams' fields
    text = README.read_text()
    start = text.index("`AttackParams` has ")
    paragraph = text[start:text.index("\n\n", start)]
    for f in fields(AttackSpec):
        assert f"`{f.name}`" in paragraph, f.name
