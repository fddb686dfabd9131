"""The library session of README.md runs as written, and its scenario section
names every field of the schema."""

import json
import re
from pathlib import Path

from toricperiods import scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      flags=re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    blocks = python_blocks()
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def scenario_section():
    text = README.read_text(encoding="utf-8")
    return text[text.index("## Scenario files"):].split("\n## ", 1)[0]


def test_readme_names_every_scenario_field():
    section = scenario_section()
    tables = {name: table for name, table in vars(scenario).items()
              if name.endswith("_FIELDS")}
    assert len(tables) == 6
    for name, table in tables.items():
        assert f"`{name}`" in section or f"`scenario.{name}`" in section, name
        for key, _, _ in table:
            assert f"`{key}`" in section or f"`curve.{key}`" in section, (name, key)


def test_readme_scenario_example_parses():
    example = re.search(r"^```json\n(.*?)^```$", scenario_section(),
                        flags=re.MULTILINE | re.DOTALL).group(1)
    scenario.parse_scenario(json.loads(example))
