"""Fixture consumer: a call, a method and a getattr target."""

from pkg import Kept, used

TARGET = "by_name"
print(used(), Kept().method(), TARGET)
