"""Every span target of the traced pipeline benchmark still resolves.

``pipebench/spans.py`` wraps each ``(module, attribute)`` of its
``TARGETS`` where the calling code looks the name up -- a module global
or a method in its own class's ``__dict__`` -- and a traced run raises
``LookupError`` as soon as one is gone. These tests resolve every target
exactly the way ``spans._patch`` does, so a refactor that drops or
inherits a traced name fails here instead of in the benchmark.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

PIPEBENCH = Path(__file__).resolve().parents[1] / "pipebench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(PIPEBENCH))
    try:
        yield importlib.import_module("spans")
    finally:
        sys.path.remove(str(PIPEBENCH))


def _resolve(module: str, attribute: str):
    """``spans._patch``'s lookup, without the patching."""
    owner = importlib.import_module(module)
    *classes, name = attribute.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return vars(owner)[name]


def test_every_target_resolves_like_patch(spans):
    missing = []
    for module, attribute, _layer in spans.TARGETS:
        try:
            _resolve(module, attribute)
        except (KeyError, AttributeError):
            missing.append(f"{module}.{attribute}")
    assert not missing, missing


def test_traced_pass_patches_and_restores(spans):
    """A traced pass swaps every target in, then restores the originals."""
    originals = {
        (module, attribute): _resolve(module, attribute)
        for module, attribute, _ in spans.TARGETS
    }
    recorder = spans.SpanRecorder()
    with recorder.traced_pass():
        for (module, attribute), original in originals.items():
            assert _resolve(module, attribute) is not original
    for (module, attribute), original in originals.items():
        assert _resolve(module, attribute) is original
