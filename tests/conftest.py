"""Test-session settings shared by every test module."""

try:
    from hypothesis import settings
except ImportError:  # the modules that use hypothesis then fail to collect on their own
    pass
else:
    # the same examples on every run, and no example database read or written;
    # max_examples stays at its default
    settings.register_profile("deterministic", derandomize=True, database=None)
    settings.load_profile("deterministic")
