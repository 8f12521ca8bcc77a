"""Every name a package exports in ``__all__`` resolves on the package.

A deletion that leaves a stale ``__all__`` entry would otherwise pass
silently until someone runs ``from repro import *``.
"""

import pytest

import repro
import repro.serving


@pytest.mark.parametrize("module", [repro, repro.serving],
                         ids=lambda module: module.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__
               if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)
