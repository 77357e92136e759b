import os
import sys
import warnings

sys.path.insert(0, os.path.dirname(__file__))

# hypothesis imports libcst when it reports a failing example, and that
# import raises a mypy_extensions.TypedDict DeprecationWarning; under
# `-W error` the warning ends the session as an INTERNALERROR instead of
# one failed test.  Importing libcst here once, with only that warning
# ignored, keeps the later import quiet.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message=r"mypy_extensions\.TypedDict is deprecated", category=DeprecationWarning
    )
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass
