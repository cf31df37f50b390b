"""Every callable the benchmark's traced mode wraps exists in the package.

``perfbench/layers.py`` names each traced callable by module and qualname.
The tracer reports a name it cannot find as ``MISSING`` and leaves its
metrics out of the JSON result, so a renamed or deleted callable would
silently drop a metric; this test makes it fail instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", ROOT / "perfbench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [target for _, _, targets in _load_layers().LAYERS for target in targets]


def test_layers_list_targets():
    assert TARGETS


@pytest.mark.parametrize("name, module_name, qualname", TARGETS, ids=[t[0] for t in TARGETS])
def test_traced_callable_resolves_in_src(name, module_name, qualname):
    module = importlib.import_module(module_name)
    assert Path(module.__file__).resolve().is_relative_to(ROOT / "src"), module.__file__
    owner = module
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
        assert owner is not None, f"{name}: {module_name}.{qualname} does not exist"
    assert callable(owner), f"{name}: {module_name}.{qualname} is not callable"
