"""Exact hammock calculus on repetition quivers, with three routes to
truncated characters: Euler characteristics of recursively built
complexes, a scalar leading-term recursion, and exchange-walk cluster
variables.  Everything is integer arithmetic — no fractions or floats
anywhere, so every equality in the test suite is exact.

The package's public names are its modules' ``__all__``, republished.
"""

from .errors import *
from .laurent import *
from .quiver import *
from .repetition import *
from .hammock import *
from .objects import *
from .complexes import *
from .cluster import *
from .qchar import *

__version__ = "0.1.0"
