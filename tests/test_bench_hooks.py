"""The benchmark wraps floodem functions by name; a renamed or dropped one
must fail here, not only when the benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_benchmark_hook_names_a_floodem_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # child.py imports its sibling hostref
    spec = importlib.util.spec_from_file_location("perfbench_child", PERFBENCH / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    assert child.TARGETS
    for mod_name, attr, _, _ in child.TARGETS:
        target = importlib.import_module(mod_name)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), f"{mod_name}.{attr}"
