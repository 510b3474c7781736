"""The benchmark tracer's targets exist in the package, and uninstalling the
tracer puts every package attribute back.

The tracer (perfbench/tracing.py) looks each target up by name, so deleting
or renaming a traced function breaks every traced benchmark run; this test
shows that in the test suite. It only reads perfbench.
"""

import importlib
import sys
from pathlib import Path

import confgen.cli  # noqa: F401  (loads every module the tracer patches)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def package_attributes() -> dict:
    """(module, name) -> value of every confgen module attribute, plus
    (class, method) -> value of every class attribute."""
    found = {}
    for module_name, module in sorted(sys.modules.items()):
        if module_name != "confgen" and not module_name.startswith("confgen."):
            continue
        for key, value in vars(module).items():
            found[module_name, key] = value
            if isinstance(value, type) and value.__module__ == module_name:
                for attr, member in vars(value).items():
                    found[f"{module_name}.{key}", attr] = member
    return found


def test_install_wraps_every_target_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    before = package_attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module_name, attr, _ in tracing.TARGETS:
            owner = sys.modules[f"confgen.{module_name}"]
            *cls, name = attr.split(".")
            key = (f"confgen.{module_name}.{cls[0]}" if cls else f"confgen.{module_name}",
                   name)
            if cls:
                owner = getattr(owner, cls[0])
            assert key in before, f"{module_name}.{attr} is not in the package"
            assert vars(owner)[name] is not before[key], f"{module_name}.{attr}"
    finally:
        tracer.uninstall()
    after = package_attributes()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
