"""Fixture module of the source census."""


def used():
    return _helper()


def _helper():
    return 1


def only_tested():
    return 2


def by_name():
    return 3


def unregister():
    return 4


class Kept:
    def __init__(self):
        self.value = 5

    def method(self):
        return self.value

    def dead(self):
        return 6
