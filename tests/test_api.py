"""The package namespace is the API that README.md documents, and no more."""

import re
import types
from pathlib import Path

import yaml

import bgqkd
from bgqkd.config import parse_config
from conftest import schema_leaves

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_import():
    """The `from bgqkd import (...)` statement of the README's library overview."""
    match = re.search(r"^from bgqkd import \(.*?^\)$", README.read_text(), re.S | re.M)
    assert match, "README.md has no `from bgqkd import (...)` block"
    return match.group(0)


def test_readme_import_block_is_the_public_namespace():
    statement = readme_import()
    namespace = {}
    exec(statement, namespace)  # every documented name imports
    documented = set(namespace) - {"__builtins__"}
    public = {name for name, value in vars(bgqkd).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == documented
    assert bgqkd.__version__


def test_readme_config_block_documents_the_schema():
    match = re.search(r"^```yaml\n(schema_version:.*?)^```$", README.read_text(), re.S | re.M)
    assert match, "README.md has no yaml block starting with schema_version"
    block = match.group(1)
    parse_config(yaml.safe_load(block))
    names = {step for path, _ in schema_leaves() for step in path if isinstance(step, str)}
    # every key is named as `key:`, in a comment if it is not set in the example
    assert sorted(n for n in names if not re.search(rf"(?<!\w){n}:", block)) == []
