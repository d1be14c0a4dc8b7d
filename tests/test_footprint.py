import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "footprint.py"


def _footprint():
    spec = importlib.util.spec_from_file_location("footprint", _TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_no_new_settable_values():
    # a ratchet: defaulted parameters plus dataclass fields of src/ may
    # only fall; lower the bound when they do
    assert _footprint().settable_values() <= 131
