from hypothesis import settings

# `pytest --hypothesis-profile=ci`: ten times the default examples, no deadline,
# and a failing draw prints the @reproduce_failure line that replays it
settings.register_profile("ci", max_examples=10 * settings.default.max_examples, deadline=None, print_blob=True)
