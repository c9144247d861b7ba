"""CSA103 fixture: the direct sink itself (CSL002's finding, not
CSA103's — CSA103 only reports the *escape* through callers)."""

import time


def now():
    return time.time()
