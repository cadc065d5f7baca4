import json
import re
from pathlib import Path

from posauction.experiments import config_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    # the docs' example must keep running as the API changes under it
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(re.match(r"\(\d+(, \d+)*\) MetricVector\(", line) for line in lines)


def test_readme_config_example_is_valid():
    # the documented config must be one the config constructor accepts
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    assert config_from_dict(json.loads(blocks[0])).validate() == []
