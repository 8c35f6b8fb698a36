"""README.md's ``python`` blocks run as written, in order, in one namespace, and
its ``ini`` block is the CLI's defaults."""

import re
from pathlib import Path

from absorbctl import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run():
    blocks = python_blocks(README.read_text())
    assert len(blocks) >= 2  # the Library example and the callable contract
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def test_readme_config_block_is_the_defaults(tmp_path):
    # the ```ini block is a hand-kept copy of cli.DEFAULTS: it must name
    # every key and parse to the same values
    block, = re.findall(r"^```ini\n(.*?)^```", README.read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines()]
    assert sorted(keys) == sorted(cli.DEFAULTS)
    config = tmp_path / "readme.cfg"
    config.write_text(block)
    assert cli.load_settings(str(config), []) == cli.DEFAULTS
