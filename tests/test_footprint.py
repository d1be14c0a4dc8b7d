import importlib.util
import json
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_TOOL = _ROOT / "tools" / "footprint.py"
#: the seed-0 hashes of ``tools/footprint.py`` and the environment they
#: were recorded in; a change that moves outputs on purpose re-records it
#: and lists the moved rows (``diff -r`` of two ``--dump`` trees)
_RECORD = Path(__file__).resolve().parent / "data" / "footprint_seed0.json"


def _footprint():
    spec = importlib.util.spec_from_file_location("footprint", _TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_no_new_settable_values():
    # a ratchet: defaulted parameters plus dataclass fields of src/ may
    # only fall; lower the bound when they do
    assert _footprint().settable_values() <= 130


def test_outputs_keep_their_recorded_bytes(monkeypatch, tmp_path):
    # the byte contract: every output of a benchmark round at seed 0 and
    # of the tool's own lines hashes as recorded, at two worker threads
    fp = _footprint()
    monkeypatch.setenv("GEORADON_THREADS", "2")
    monkeypatch.syspath_prepend(str(_ROOT / "perfbench"))
    record = json.loads(_RECORD.read_text(encoding="utf-8"))
    dump = tmp_path / "dump"
    got = dict(fp.hashes([0], ["radial", "mc", "chain"], str(tmp_path),
                         str(dump)))
    moved = [label for label, digest in record["hashes"].items()
             if got.get(label) != digest]
    assert not moved, (
        f"moved outputs: {', '.join(moved)}; the text behind each hash is "
        f"under {dump}.  Recorded in {record['environment']}, run in "
        f"{fp.environment()}")
