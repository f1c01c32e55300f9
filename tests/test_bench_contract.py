"""The benchmark's probes patch library attributes by name
(`bench/probes.py`, `PROBES`).  A refactor that drops or renames one of
those bindings must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

PROBES_PATH = Path(__file__).resolve().parent.parent / "bench" / "probes.py"


def test_every_probe_binding_is_a_callable_module_attribute():
    spec = importlib.util.spec_from_file_location("bench_probes", PROBES_PATH)
    probes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probes)
    assert probes.PROBES
    for module_name, attr, _ in probes.PROBES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
