"""The package namespace is the API that README.md documents, and no more;
every public function, method and property serves the package or that API;
the CLI loads every module the benchmark's tracer wraps, and the package
never reaches into the tests."""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest
import yaml

import bgqkd
from bgqkd.config import parse_config
from conftest import schema_leaves

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def test_every_public_function_is_used_or_documented():
    # a public module-level function that no code in the package refers to
    # and the README's import block does not name serves only the tests
    package = Path(bgqkd.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name | ast.Attribute) and isinstance(node.ctx, ast.Load)}
    documented = {alias.name for node in ast.parse(readme_import()).body for alias in node.names}
    unused = [f"{stem}.{node.name}" for stem, tree in trees.items() for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
              and node.name not in used | documented]
    assert unused == []


def test_every_public_method_and_property_is_used_or_documented():
    # likewise for the methods and properties of the package's classes: a
    # name that no code in the package refers to and no README python block
    # names serves only the tests
    package = Path(bgqkd.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert blocks, "README.md has no python block"
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in [*trees.values(), *map(ast.parse, blocks)] for node in ast.walk(tree)
            if isinstance(node, ast.Name | ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unused = [f"{stem}.{cls.name}.{node.name}" for stem, tree in trees.items()
              for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
              and node.name not in used]
    assert unused == []


def test_readme_config_block_documents_the_schema():
    match = re.search(r"^```yaml\n(schema_version:.*?)^```$", README.read_text(), re.S | re.M)
    assert match, "README.md has no yaml block starting with schema_version"
    block = match.group(1)
    parse_config(yaml.safe_load(block))
    names = {step for path, _ in schema_leaves() for step in path if isinstance(step, str)}
    # every key is named as `key:`, in a comment if it is not set in the example
    assert sorted(n for n in names if not re.search(rf"(?<!\w){n}:", block)) == []


def test_cli_import_loads_every_traced_module():
    # perfbench/tracer.py wraps the functions of bgqkd.<name> for each name
    # in its MODULES, looked up in sys.modules after `import bgqkd.cli`
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    modules = next(ast.literal_eval(node.value) for node in tracer.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["MODULES"])
    assert modules
    loaded = subprocess.run(  # `-c` puts the working directory first on sys.path
        [sys.executable, "-c", "import sys, bgqkd.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, check=True, cwd=Path(bgqkd.__file__).parents[1],
    ).stdout.split()
    assert sorted(f"bgqkd.{name}" for name in modules if f"bgqkd.{name}" not in loaded) == []


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("caller", [None, "2"])
def test_import_pins_openblas_to_one_thread(caller):
    # a fresh interpreter that imports the package before numpy, as the
    # console script and `python -m bgqkd.cli` do, starts no BLAS worker
    # thread, unless the caller asked for them
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    script = ("import os, bgqkd; print(os.environ['OPENBLAS_NUM_THREADS']); "
              "print(open('/proc/self/status').read())")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env=env, cwd=Path(bgqkd.__file__).parents[1]).stdout
    value, status = out.split("\n", 1)
    assert value == (caller or "1")
    if caller is None:
        assert re.search(r"^Threads:\s+(\d+)$", status, re.M).group(1) == "1"


def test_package_imports_nothing_from_tests():
    test_modules = {p.stem for p in (ROOT / "tests").glob("*.py")} | {"tests"}
    package = Path(bgqkd.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {n}" for n in names if n.split(".")[0] in test_modules]
    assert found == []


def test_only_the_transport_step_and_selfheal_import_scipy_fft():
    # propagation holds the one FFT -> kernel -> inverse FFT step and selfheal
    # its spectral sums; no other module may grow a transport of its own
    package = Path(bgqkd.__file__).resolve().parent
    users = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if any(n == "scipy.fft" or n.startswith("scipy.fft.") for n in names):
                users.add(path.stem)
    assert users == {"propagation", "selfheal"}
