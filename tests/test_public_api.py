"""The package exports every name the benchmark and the README sketch import."""
import ast
import re
from pathlib import Path

import pytest

import epiadapt
import epiadapt.harness as harness

ROOT = Path(__file__).resolve().parents[1]


def epiadapt_imports(source: str) -> set[str]:
    """Names a module imports with ``from epiadapt import ...``."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "epiadapt"
        for alias in node.names
    }


def python_blocks(markdown: str) -> str:
    return "\n".join(re.findall(r"```python\n(.*?)```", markdown, flags=re.S))


@pytest.mark.parametrize("relpath", ["benchmarks/run.py", "benchmarks/probe_setup.py",
                                     "README.md"])
def test_imported_names_are_exported(relpath):
    text = (ROOT / relpath).read_text()
    names = epiadapt_imports(python_blocks(text) if relpath.endswith(".md") else text)
    assert names, f"{relpath} imports nothing from epiadapt"
    missing = sorted(name for name in names if not hasattr(epiadapt, name))
    assert not missing, f"{relpath} imports names epiadapt does not export: {missing}"


def test_error_types_are_exported():
    assert issubclass(epiadapt.ConfigError, ValueError)
    assert issubclass(epiadapt.IntegrationError, RuntimeError)


@pytest.mark.parametrize("name", ["make_batch_evaluator", "run_c3", "run_nsde"])
def test_traced_harness_names_exist(name):
    # The traced benchmark swaps these module attributes for wrappers.
    assert callable(getattr(harness, name))
