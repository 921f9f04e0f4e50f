"""Test-session setup shared by every test file.

On a failing ``hypothesis`` test, hypothesis's pytest plugin imports
``hypothesis.extra._patching``, which imports libcst where it is installed.
libcst's import raises a mypy_extensions ``TypedDict`` DeprecationWarning,
which the ``filterwarnings`` setting turns into an error, and pytest stops
with INTERNALERROR before the other tests run.  Importing the module here
once, with that warning ignored, lets the failure be reported like any
other; no warning filter for mereo's own code changes.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
