"""Shared fixtures.

``pin_dispatch`` is the message of the SHA pins that hash analytic last bits
(the quadrature outputs, the preset files and the scalar protocol's sampled
gains): numpy's ``exp``, ``expm1`` and ``log1p`` loops round some last bits
differently under different SIMD dispatch, so a mismatch names the dispatch
the pins were taken under and the one the run had.
"""

import numpy as np
import pytest

# numpy and its dispatched SIMD features when the pins were taken
PINNED_UNDER = "numpy 2.4.6 dispatching X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


@pytest.fixture(scope="session")
def pin_dispatch() -> str:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2.0
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    features = " ".join(name for name in __cpu_dispatch__ if __cpu_features__.get(name))
    return (
        f"pinned under {PINNED_UNDER}; this run has numpy {np.__version__} "
        f"dispatching {features or 'no SIMD features'}"
    )
