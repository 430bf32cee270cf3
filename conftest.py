"""Pin BLAS to one thread, as the voicetrace command does, before any test module imports numpy.

The pipeline runs its --jobs workers as threads or forked processes, one per core; an
unpinned OpenBLAS would add its own threads to each of them. A value set in the
environment wins, as it does for the command.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
