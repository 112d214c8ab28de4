"""H(grad curl)-nonconforming brick finite elements for the 3D quad-curl
problem on the unit cube: saddle-point schemes with a reconstructed load,
corrected superclose interpolation, macroelement postprocessing, and a
manufactured-solution convergence harness.

Modules
-------
polyquad   exact polynomial algebra on boxes, tensor Gauss rules
mesh       structured brick partitions and macroelement tiling
mms        exact trigonometric manufactured solution and load
spaces     element spaces, DoF functionals, dual bases, the Gauss walk
interp     canonical / corrected / macro interpolation operators
system     global DoF maps, assembly, saddle-point solvers
analysis   error norms, EOC computation, convergence reports
checks     exact-identity battery and independent oracles
cli        batch harness (also exposed as the ``quadcurl`` command)
"""

__version__ = "0.1.0"
