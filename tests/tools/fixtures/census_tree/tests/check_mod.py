"""Fixture tests: references here do not count."""

from pkg.mod import Kept, only_tested

assert only_tested() == 2
assert Kept().dead() == 6
