"""The traced benchmark wraps qvpn names that must still exist."""

import importlib
from pathlib import Path


def test_every_traced_name_exists(monkeypatch):
    # perfbench/spans.install reads owner.__dict__[attr], so a renamed or
    # removed name crashes every traced run; the bench's own tests run untraced
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    layers = importlib.import_module("layers")
    targets = layers.targets()
    assert len(targets) >= 26
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr, _, _ in targets
               if attr not in vars(owner)]
    assert missing == []
