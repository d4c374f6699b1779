"""Fixed-seed trees and predictions stay bit-identical to the stored digests.

The digests in tests/data/golden_digests.json were written by
scripts/golden_digests.py --write. A change meant to keep outputs identical
must pass this test without regenerating them.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_script():
    spec = importlib.util.spec_from_file_location("golden_digests", ROOT / "scripts" / "golden_digests.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_golden_digests_unchanged():
    golden = _load_script()
    stored = json.loads(golden.DIGEST_PATH.read_text())
    current = golden.compute_digests()
    assert len(stored) == 48
    assert current.keys() == stored.keys()
    bad = [k for k in stored if stored[k] != current[k]]
    assert not bad, f"{len(bad)} configurations changed, first: {bad[:5]}"
