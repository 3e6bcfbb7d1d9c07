"""Spectral certificates and resolvent scaling checks for channel shear flows.

The package answers two questions about a monotone velocity profile U on
[-1, 1]:

1. Is the flow spectrally stable at large Reynolds number?  `certify_profile`
   checks positivity of -d2 + U''/(U - nu) over the profile's inflection
   set, which rules out inviscid neutral limits.
2. Do the resolvent norms of the associated advective and fourth-order
   operators obey their predicted power laws in the rescaled Reynolds
   number?  The `sweeps` module measures them on banded Legendre-Galerkin
   systems.
"""

from . import airy, certify, chebdiff, operators, profile, spectral, sweeps
from .chebdiff import *
from .profile import *
from .operators import *
from .airy import *
from .spectral import *
from .certify import *
from .sweeps import *

__version__ = "0.1.0"

# each module's own __all__ is the one list of its public names
__all__ = ["__version__"] + [
    name
    for module in (chebdiff, profile, operators, airy, spectral, certify, sweeps)
    for name in module.__all__
]
