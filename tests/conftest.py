from hypothesis import settings

# `pytest --hypothesis-profile=ci`: ten times the default examples, no deadline
settings.register_profile("ci", max_examples=10 * settings.default.max_examples, deadline=None)
