"""Unit conventions and conversions.

Everything inside the package works in angular frequency (rad/ns) and time
in ns.  Configuration files, CSV exports and reported numbers use ordinary
frequency in GHz (nu = omega / 2pi).  Conversions happen only at the
boundary (io, cli, summaries); never mix conventions inside the numerics.
"""

import numpy as np

TWO_PI = 2.0 * np.pi
