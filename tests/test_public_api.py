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


def module_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in (ROOT / "src" / "epiadapt").glob("*.py")}


def imported_modules(source: str) -> set[str]:
    """Modules a source imports, package modules by their bare name (``dynamics``)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:  # from . import name
                out.update(alias.name for alias in node.names)
            else:
                out.add(node.module)
    return {name.removeprefix("epiadapt.") for name in out}


def called_names(source: str) -> set[str]:
    """Names of the functions and methods a source calls."""
    calls = [node.func for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]
    return {getattr(func, "id", getattr(func, "attr", None)) for func in calls}


FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes", "mkdir",
              "unlink", "rmtree", "iterdir", "glob"}


def test_each_outside_resource_has_one_owner():
    sources = module_sources()
    assert {"harness", "_native", "cli", "dynamics", "de_core", "coevolve"} <= set(sources)
    for name, source in sources.items():
        imports = imported_modules(source)
        if name != "harness":
            assert not imports & {"csv", "json"}, name
        if name != "_native":
            assert not imports & {"ctypes", "subprocess", "tempfile", "mmap"}, name
            assert "/proc" not in source, name
        if name not in ("harness", "_native"):
            assert not called_names(source) & FILE_CALLS, name
    assert "dynamics" not in imported_modules(sources["de_core"])
    assert "dynamics" not in imported_modules(sources["coevolve"])
    assert "de_core" not in imported_modules(sources["dynamics"])
