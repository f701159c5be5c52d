"""Simulation toolkit for small quantum systems.

Pure-state circuits with measurement, density matrices and entropy,
closed-form spin-exchange dynamics with Kraus extraction, CHSH
correlation tests, coupled-oscillator entanglement entropy, and a
digitized scalar field with a truncated gauge model.

The package exports the union of its modules' ``__all__`` lists, which
are the one place each public name is declared.
"""

from . import bell, density, dynamics, info, lattice, oscillators, qstate
from .bell import *
from .density import *
from .dynamics import *
from .info import *
from .lattice import *
from .oscillators import *
from .qstate import *

__version__ = "0.1.0"

__all__ = sorted({
    *bell.__all__, *density.__all__, *dynamics.__all__, *info.__all__,
    *lattice.__all__, *oscillators.__all__, *qstate.__all__,
})
