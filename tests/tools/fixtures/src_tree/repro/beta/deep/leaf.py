X = 1
Y = 2
Z = 3
# no trailing newline