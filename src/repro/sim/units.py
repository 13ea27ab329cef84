"""Time units for the simulation.

The simulated clock is an integer count of nanoseconds.  These constants
exist so that configuration code reads as ``5 * US`` instead of ``5000``.
"""

NS = 1
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000
