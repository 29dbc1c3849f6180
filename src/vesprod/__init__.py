"""Production functions with variable elasticity of factor substitution.

Evaluation of six production-function families in intensive and extensive
form, closed-form substitution analysis (marginal rate of substitution,
elasticity, regimes, validity ranges), ordinary least squares estimation
of the underlying log-linear relations, and independent numerical
verification oracles.  A command line front end lives in
:mod:`vesprod.cli`.

Each module's ``__all__`` is the one list of its public names; the package
republishes them all.
"""

from .errors import *
from .families import *
from .substitution import *
from .estimation import *
from .oracles import *

__version__ = "0.1.0"
