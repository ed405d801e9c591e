"""exactbell: exact-arithmetic machinery for CHSH/Bell correlation
experiments under rationality constraints.

The library keeps every production computation in exact rational or
quadratic-surd arithmetic; floating point appears only in clearly marked
test oracles. The package re-exports each module's ``__all__``.
"""

__version__ = "0.1.0"

from .exactnum import *
from .finitestates import *
from .ontology import *
from .bellsim import *
from .detgen import *
