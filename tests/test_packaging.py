"""Packaging: one version number, the artifact version of its reports, one
numpy floor, stated alike in pyproject.toml and the README, and no other
third-party import."""

import ast
import re
import sys
from pathlib import Path

import pytest

import osscheck
from osscheck.report import ARTIFACT_VERSION

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_pyproject_takes_the_version_from_the_artifact_version():
    import tomllib

    meta = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in meta["project"]
    assert "version" in meta["project"]["dynamic"]
    attr = meta["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "osscheck.report.ARTIFACT_VERSION"
    assert osscheck.__version__ == ARTIFACT_VERSION == "0.8.0"


def test_readme_states_the_numpy_floor_of_pyproject():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    floors = re.findall(r'"numpy>=(\d+(?:\.\d+)*)"', pyproject)
    assert len(floors) == 1
    assert re.findall(r"numpy >= (\d+(?:\.\d+)*)", readme) == floors


@pytest.mark.skipif(sys.version_info < (3, 10),
                    reason="sys.stdlib_module_names needs Python 3.10")
def test_the_package_imports_only_the_stdlib_and_numpy():
    # sympy and the test tools may be installed, but the package depends on
    # numpy alone (pyproject.toml)
    allowed = set(sys.stdlib_module_names) | {"numpy", "osscheck"}
    found = set()
    for path in (ROOT / "src" / "osscheck").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add(node.module.split(".")[0])
    assert "numpy" in found and found <= allowed, sorted(found - allowed)


def test_no_builtin_max_or_min_over_dict_values():
    # max(d.values()) keeps a NaN only when it comes first; a worst
    # residual is reduced by numpy (np.max, np.argmax), which ranks NaN first
    found = []
    for path in sorted((ROOT / "src" / "osscheck").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("max", "min")
                    and any(isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and sub.func.attr == "values"
                            for arg in node.args for sub in ast.walk(arg))):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_all_lists_the_public_names_bound_in_init():
    bound = set()
    tree = ast.parse((ROOT / "src" / "osscheck" / "__init__.py").read_text(
        encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
    public = {name for name in bound if not name.startswith("_")}
    assert len(set(osscheck.__all__)) == len(osscheck.__all__)
    assert set(osscheck.__all__) == public
    for name in osscheck.__all__:
        assert getattr(osscheck, name) is not None, name


def test_no_module_level_cache_but_the_spectral_store():
    # derived data stays on its tensor and dies with it: the one module
    # state is analysis._store, which holds its tensor weakly
    caches = {"cache", "lru_cache", "cached_property", "WeakKeyDictionary",
              "WeakValueDictionary"}
    found, globals_ = [], set()
    for path in sorted((ROOT / "src" / "osscheck").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else None)
            if name in caches:
                found.append(f"{path.name}:{node.lineno} {name}")
            elif isinstance(node, ast.Global):
                globals_.update(f"{path.stem}.{g}" for g in node.names)
    assert not found, found
    assert globals_ == {"analysis._store"}


def test_the_checkers_import_no_limb_name():
    # the exact checkers hand a linear contraction to curvature.exact_jacobi
    # and get exact results back: the limb format stays behind linalg and
    # curvature
    limb_names = {"combine", "exact_parts", "limbs", "int64_parts"}
    tree = ast.parse((ROOT / "src" / "osscheck" / "analysis.py").read_text(
        encoding="utf-8"))
    found = [f"{node.lineno} {alias.name}" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module
             and node.module.split(".")[-1] == "linalg"
             for alias in node.names if alias.name in limb_names]
    assert not found, found
