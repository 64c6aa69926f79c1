"""The package namespace exports only names that something outside their own
module uses: the library, the benchmark or the acceptance battery."""

import re
import types
from pathlib import Path

import semiflow_lab

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
