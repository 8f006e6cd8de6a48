A = 1
B = 2


def f():
    return A + B
