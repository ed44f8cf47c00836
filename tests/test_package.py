import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import ebs
import ebs.constants
import ebs.sequences
from ebs.semigroup import GroupSpec

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _home(name):
    """The object called `name` in the ebs module that defines it."""
    obj = getattr(ebs, name)
    assert obj.__module__.startswith("ebs."), name
    return getattr(importlib.import_module(obj.__module__), name)


class TestLazyExports:
    @pytest.mark.parametrize("name", ebs.__all__)
    def test_name_resolves_to_its_home_object(self, name):
        assert getattr(ebs, name) is _home(name)

    def test_star_import_binds_every_name(self):
        scope = {}
        exec("from ebs import *", scope)
        for name in ebs.__all__:
            assert scope[name] is _home(name), name

    def test_dir_lists_every_name(self):
        assert set(ebs.__all__) <= set(dir(ebs))
        assert "__version__" in dir(ebs)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            ebs.no_such_name
        assert getattr(ebs, "main", None) is None
        with pytest.raises(ImportError):
            exec("from ebs import no_such_name", {})


class TestBenchmarkTracerHooks:
    """perfbench/tracing.py wraps ebs functions and the ReachEngine
    constructors by name, so `run.py --trace 1` breaks when one is renamed."""

    def test_every_hook_is_rebound_and_restored(self, monkeypatch):
        spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        engine = ebs.sequences.ReachEngine
        hooks = [(mod, name) for _layer, mod, name, _info in tracing.FUNCTIONS]
        hooks += [(engine, "for_spec"), (engine, "for_group")]
        for obj, name in hooks:
            assert hasattr(obj, name), name
        before = {(id(obj), name): vars(obj)[name] for obj, name in hooks}
        for name in ("for_spec", "for_group"):
            assert isinstance(vars(engine)[name], classmethod), name
        # The tracer also binds a pool class in ebs.constants, which the
        # program does not read, and restore() leaves one bound there;
        # monkeypatch removes it at teardown.
        monkeypatch.setattr(ebs.constants, "ProcessPoolExecutor", None, raising=False)
        tracer = tracing.Tracer()
        try:
            tracer.patch()
            rebound = {(id(obj), name) for obj, name, _old in tracer._saved}
            assert set(before) <= rebound
            engine.for_group(GroupSpec((2,)))
            assert [(s[1], s[6]) for s in tracer.spans] == [("engine_build", {"entries": 2})]
        finally:
            tracer.restore()
        for obj, name in hooks:
            assert vars(obj)[name] is before[(id(obj), name)], name


def test_readme_library_example_runs():
    """The README's Python block runs, and each line whose comment starts
    with a number evaluates to that number."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    scope = {}
    exec(block, scope)
    stated = [(expr, int(value)) for expr, value
              in re.findall(r"^(\S.*?)\s*#\s*(\d+)\b", block, re.M)]
    assert [value for _, value in stated] == [7, 7, 5]
    for expr, value in stated:
        assert eval(expr, scope) == value, expr


def test_no_module_reads_the_environment():
    """An ebs run is configured by its arguments alone: no module reads
    os.environ, os.getenv or os.cpu_count."""
    banned = {"environ", "getenv", "cpu_count"}
    reads = []
    for path in sorted((ROOT / "src" / "ebs").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {a.asname or a.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for a in node.names if a.name == "os"}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in banned
                    and isinstance(node.value, ast.Name) and node.value.id in aliases):
                reads.append(f"{path.name}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{path.name}:{node.lineno} from os import {a.name}"
                          for a in node.names if a.name in banned]
    assert reads == []


def test_package_is_stdlib_only():
    """ebs depends on the standard library alone: every absolute import in
    src/ebs, those inside functions included, names a stdlib module, and
    pyproject.toml lists no dependencies."""
    outside = []
    for path in sorted((ROOT / "src" / "ebs").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                if module.partition(".")[0] not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno} {module}")
    assert outside == []
    project = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies\s*=\s*\[\s*\]", project, re.M)
