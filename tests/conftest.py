from hypothesis import settings

# Property tests replay the same examples on every run and never time out,
# so they cannot make the suite flaky or slow.
settings.register_profile("driftlearn", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("driftlearn")
