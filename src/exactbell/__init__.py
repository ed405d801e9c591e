"""exactbell: exact-arithmetic machinery for CHSH/Bell correlation
experiments under rationality constraints.

The library keeps every production computation in exact rational or
quadratic-surd arithmetic. Floating point appears in one module only,
``exactbell.oracle``, the spin-operator cross-check behind
``chsh --oracle-check``. The package re-exports each module's ``__all__``.
"""

__version__ = "0.1.0"

from .exactnum import *
from .finitestates import *
from .ontology import *
from .bellsim import *
from .detgen import *
from .oracle import *
