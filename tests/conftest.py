import atexit
import os
import shutil
import sys
import tempfile
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

# One settings profile for every property test: no deadline (exact
# arithmetic on 40-digit entries has no fixed cost per example), no
# example database, and a fixed example sequence, so a run is repeatable.
# A decorator names only what differs, such as max_examples.  From
# collection on Hypothesis also caches the constants it reads from local
# modules; keep that cache in a directory of its own, removed when the run
# exits.
try:
    from hypothesis import configuration, settings
except ImportError:
    pass
else:
    settings.register_profile("ringroots", deadline=None, database=None, derandomize=True)
    settings.load_profile("ringroots")
    _HOME = tempfile.mkdtemp(prefix="hypothesis-")
    configuration.set_hypothesis_home_dir(_HOME)
    atexit.register(shutil.rmtree, _HOME, ignore_errors=True)
