"""Exact q-series workbench for fractional partition congruences.

Computes coefficients of (q;q)_inf^alpha and of Dedekind-eta powers in
exact rational arithmetic, verifies prime-power congruence claims over
coefficient ranges, searches for the parameters those claims need, and
probes modulus sharpness.  No floating point anywhere.  The API is what
the commands run: each library module's ``__all__``, re-exported here.
"""

__version__ = "0.1.0"  # first: congruence and cli import it from the package

from . import arith, congruence, forms, intexpr, qseries
from .arith import *
from .congruence import *
from .forms import *
from .intexpr import *
from .qseries import *

__all__ = ["__version__"]
__all__ += arith.__all__
__all__ += congruence.__all__
__all__ += forms.__all__
__all__ += intexpr.__all__
__all__ += qseries.__all__
