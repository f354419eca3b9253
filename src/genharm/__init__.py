"""Frequency decomposition of periodic signals over two-function bases.

The classical sine/cosine pair is one choice of basis among many. This
package analyzes signals over an arbitrary pair (S, R) of periodic
generating functions, checks whether that pair is usable at all, and
reconstructs, filters, and summarizes the results.

Each public name is declared once, in its module's ``__all__``; the
package exports the union of those lists.
"""

from . import basis, decompose, errors, signals, spectrum
from .basis import *  # noqa: F401,F403
from .decompose import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .signals import *  # noqa: F401,F403
from .spectrum import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted({name for module in (basis, decompose, errors, signals, spectrum) for name in module.__all__})
