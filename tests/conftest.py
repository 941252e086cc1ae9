"""Hypothesis runs derandomized and keeps no example database, so a tree
gives the same verdicts on every run, with or without a .hypothesis/ left
by an earlier one."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
