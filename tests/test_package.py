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


def test_no_unused_imports():
    """Every module-level import in src/ebs binds a name that its module
    reads (`from __future__` aside): an import left behind by a deletion
    fails here."""
    unused = []
    for path in sorted((ROOT / "src" / "ebs").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        statements = list(tree.body)
        for node in statements:
            if isinstance(node, (ast.If, ast.Try)):  # module level still
                statements += node.body + node.orelse + getattr(node, "finalbody", [])
            elif (isinstance(node, ast.Import)
                  or isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                unused += [f"{path.name}:{node.lineno} {a.name}" for a in node.names
                           if (a.asname or a.name).partition(".")[0] not in read]
    assert unused == []


def test_only_frozen_stores_value_fields():
    """Every value class hands its fields to config._Frozen.__init__: no
    other class or module calls object.__setattr__."""
    calls = []  # (module, top-level class or None, line)
    for path in sorted((ROOT / "src" / "ebs").rglob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = top.name if isinstance(top, ast.ClassDef) else None
            calls += [(path.name, owner, node.lineno) for node in ast.walk(top)
                      if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                      and isinstance(node.value, ast.Name) and node.value.id == "object"]
    assert calls
    assert [c for c in calls if c[:2] != ("config.py", "_Frozen")] == []


def test_one_result_path():
    """config alone decides the method of a constant and builds its "both"
    result: one raise of SpecError("unknown method ..."), and one
    ConstResult(...) whose method is the literal "both", both in config."""
    raises, both = [], []
    for path in sorted((ROOT / "src" / "ebs").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            text = node.args[0] if node.args else None
            if isinstance(text, ast.JoinedStr):
                text = text.values[0]
            if (node.func.id == "SpecError" and isinstance(text, ast.Constant)
                    and str(text.value).startswith("unknown method")):
                raises.append(path.name)
            fields = dict(zip(("quantity", "value", "lower", "upper", "rule", "method"),
                              node.args))
            fields.update((k.arg, k.value) for k in node.keywords)
            method = fields.get("method")
            if (node.func.id == "ConstResult" and isinstance(method, ast.Constant)
                    and method.value == "both"):
                both.append(path.name)
    assert (raises, both) == (["config.py"], ["config.py"])


def test_structure_does_not_import_constants():
    """structure builds its l-hat and l results from config: it imports
    nothing from constants, in function bodies and TYPE_CHECKING blocks
    included."""
    path = ROOT / "src" / "ebs" / "structure.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".") + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            parts = [p for a in node.names for p in a.name.split(".")]
        else:
            continue
        if "constants" in parts:
            found.append(f"structure.py:{node.lineno}")
    assert found == []
