"""Nonparametric genewise variance estimation for replicated two-color arrays.

The API lives in the submodules (genevar.io, genevar.correlation, ...).
"""

import os

# One OpenBLAS thread, set before numpy (and scipy) first load OpenBLAS.  No
# matrix product here is large enough to use a BLAS thread pool (the largest
# is about (101 x 521) . (521 x 3)): on a 2-core host, `estimate` at 100k
# genes took 2.88 s with the pool and 2.95 s without, within run-to-run
# spread.  Building the pool costs about 70 ms per OpenBLAS copy, and numpy
# and scipy.special each load their own: `import numpy` went 0.245 -> 0.177 s
# and `import numpy, scipy.special` 0.578 -> 0.433 s.  Unpinned, the forked
# workers of `run_experiment` oversubscribe the cores; there, adding the pool
# raised a `simulate` job's CPU time from 2.38 to 2.67 s.  A value the caller
# set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
