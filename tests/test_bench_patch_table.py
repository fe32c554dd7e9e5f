"""The traced benchmark run patches functions by name (``perfbench.layers.SPANS``).

A target the program stops exporting would crash ``perfbench/run.py
--trace 1``; this pins the table to the source tree.
"""

import importlib

import pytest

from perfbench.layers import SPANS


@pytest.mark.parametrize("target", sorted({t for t, _ in SPANS}))
def test_span_target_resolves(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), target
