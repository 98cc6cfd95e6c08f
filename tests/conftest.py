"""Session set-up shared by every test module."""

import warnings

# To report a failing example, the hypothesis pytest plugin imports
# hypothesis.extra._patching, and with it libcst when that is installed.
# libcst's import warns that mypy_extensions.TypedDict is deprecated, which
# under -W error::DeprecationWarning ends the session in an internal error,
# with no example printed and the remaining tests not run. Importing the
# module once here, ignoring only that warning, leaves it loaded for the
# report. Without libcst the import fails and the plugin skips the patch.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore",
        message=r"mypy_extensions\.TypedDict is deprecated",
        category=DeprecationWarning,
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
