"""The package namespace exports only names that something outside their own
module uses: the library, the benchmark or the acceptance battery.  A default
of an exported function is a setting only if some call passes it, and a scan
field only if the benchmark sets it."""

import ast
import dataclasses
import importlib.util
import inspect
import re
import types
from pathlib import Path

import semiflow_lab
from semiflow_lab.criteria import SupScanConfig

ROOT = Path(__file__).resolve().parents[1]

# exported although nothing outside their module calls them, and why
UNCALLED = {
    "commutant_check": "the commutant of M_z, whose members are the multiplication "
                       "operators; the paper's first step to a weighted composition operator",
    "composition_op": "C_phi, the unweighted member of the paper's operator class",
    "multiplication_op": "M_g; with g = z it is the operator whose commutant is probed",
}


def test_every_export_is_used_outside_its_module():
    sources = [*sorted((ROOT / "src" / "semiflow_lab").glob("*.py")),
               *sorted((ROOT / "perfbench").glob("*.py")),
               ROOT / "tests" / "test_acceptance.py"]
    texts = {path: path.read_text() for path in sources if path.name != "__init__.py"}
    unused = []
    for name in semiflow_lab.__all__:
        obj = getattr(semiflow_lab, name)
        if isinstance(obj, types.ModuleType):
            continue
        home = ROOT / "src" / Path(*obj.__module__.split(".")).with_suffix(".py")
        if not any(re.search(rf"\b{name}\b", text) for path, text in texts.items()
                   if path != home):
            unused.append(name)
    # an allowance that something now calls is no longer needed
    assert sorted(unused) == sorted(UNCALLED)


# exported defaulted parameters that no call passes, and why
UNSET = {}


def _call_sites():
    """(callee name, positional arguments, keywords) per call; ``from ... import
    f as g`` resolves g to f, and ``*args``/``**kwargs`` forward no value of their own."""
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py"),
                 *(ROOT / "tests").rglob("*.py")]:
        tree = ast.parse(path.read_text())
        alias = {a.asname: a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for a in node.names if a.asname}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            yield (alias.get(name, name), sum(not isinstance(a, ast.Starred) for a in node.args),
                   {kw.arg for kw in node.keywords})


def test_every_exported_default_is_passed_somewhere():
    calls = list(_call_sites())
    unset = []
    for name in semiflow_lab.__all__:
        fn = getattr(semiflow_lab, name)
        if not inspect.isfunction(fn):
            continue
        params = list(inspect.signature(fn).parameters.values())
        for i, param in enumerate(params):
            if param.default is inspect.Parameter.empty:
                continue
            positional = param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            if not any(callee == name and (param.name in keywords or positional and count > i)
                       for callee, count, keywords in calls):
                unset.append(f"{name}.{param.name}")
    # an allowance that some call now passes is no longer needed
    assert sorted(unset) == sorted(UNSET)


def test_every_scan_setting_is_set_by_the_benchmark():
    # a scan field that only tests set is a constant of the criteria module
    texts = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    unset = [f.name for f in dataclasses.fields(SupScanConfig)
             if not any(re.search(rf"\b{f.name}\b", text) for text in texts)]
    assert unset == []


def test_every_traced_patch_point_resolves():
    # the traced benchmark run installs its wrappers with owner.__dict__[attr],
    # so a renamed src function would break only that run
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in spans.PATCH_POINTS
               if attr not in owner.__dict__]
    assert missing == []


def test_no_src_module_imports_a_name_it_never_uses():
    # the package namespace re-exports its imports, and a line marked
    # "# noqa: F401" keeps a name where the benchmark patches it
    unused = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or isinstance(node, ast.ImportFrom) and node.module == "__future__"
                    or any("# noqa: F401" in line
                           for line in lines[node.lineno - 1:node.end_lineno])):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert unused == []
