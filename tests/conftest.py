"""Fixtures over the builds of the compiled kernels in ``_rk4.c``."""
import platform
import warnings

import pytest

import epiadapt._native as native


@pytest.fixture(scope="module")
def kernel():
    """The loaded kernel library; tests that need it skip when no compiler is found."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        built = native.kernel()
    if built is None:
        pytest.skip("the compiled kernels could not be built here")
    return built


@pytest.fixture()
def isolated_kernel(tmp_path, monkeypatch):
    """Point the kernel loader at an empty cache, with no build loaded yet."""
    loader = native.kernel
    monkeypatch.setattr(native, "CACHE", tmp_path / "__pycache__")
    loader.cache_clear()
    yield tmp_path / "__pycache__"
    loader.cache_clear()


@pytest.fixture(scope="module")
def level_builds(tmp_path_factory):
    """Every kernel build this host can make and run, by level, from a temporary cache."""
    cache = tmp_path_factory.mktemp("levels")
    try:
        cpuinfo = native.CPUINFO.read_text()
    except OSError:
        cpuinfo = ""
    builds = {}
    with pytest.MonkeyPatch.context() as m:
        m.setattr(native, "CACHE", cache)
        for level in native.host_levels(cpuinfo, platform.machine()):
            try:
                builds[level] = native.build(level)
            except OSError:
                pass
    if "base" not in builds:
        pytest.skip("the baseline build of the kernels could not be built here")
    return builds
