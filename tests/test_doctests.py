"""Execute the library's docstring examples.

Every example in a public docstring is a promise to the user; this test
runs them all so documentation drift fails CI.
"""

import doctest

import pytest

import repro.core.ggrid
import repro.core.message_list
import repro.mobility.moto
import repro.mobility.patterns
import repro.obs
import repro.obs.tracing
import repro.persist.snapshot
import repro.roadnet.graph
import repro.simgpu.device

MODULES = [
    repro.roadnet.graph,
    repro.core.ggrid,
    repro.core.message_list,
    repro.mobility.moto,
    repro.mobility.patterns,
    repro.obs,
    repro.obs.tracing,
    repro.persist.snapshot,
    repro.simgpu.device,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} lost its examples"
    assert results.failed == 0
