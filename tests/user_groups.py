"""Base groups given to classalg as user multiplication tables."""

import itertools

from classalg import builtin_group, load_group

_S3 = builtin_group("sym3")

# sym(3) relabelled so that element 0 is not the identity
SYM3_SHIFTED = load_group({
    "order": 6,
    "mult": [
        [(_S3.mult[(a - 3) % 6][(b - 3) % 6] + 3) % 6 for b in range(6)]
        for a in range(6)
    ],
})


def _dihedral8():
    # element i + 4j is r^i s^j, and s r = r^-1 s
    def mul(x, y):
        (a, b), (c, d) = divmod(x, 4)[::-1], divmod(y, 4)[::-1]
        return (a + (-c if b else c)) % 4 + 4 * ((b + d) % 2)

    return load_group({
        "order": 8,
        "mult": [[mul(x, y) for y in range(8)] for x in range(8)],
        "names": ["e", "r", "r2", "r3", "s", "rs", "r2s", "r3s"],
    })


def _quaternion():
    # element u + 4s is (-1)^s times the unit u of (1, i, j, k)
    units = {  # u * v = (sign, unit)
        (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
        (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
        (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
        (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
    }

    def mul(x, y):
        (s, u), (t, v) = divmod(x, 4), divmod(y, 4)
        sign, w = units[(u, v)]
        return w + 4 * ((s + t + sign) % 2)

    return load_group({
        "order": 8,
        "mult": [[mul(x, y) for y in range(8)] for x in range(8)],
        "names": ["1", "i", "j", "k", "-1", "-i", "-j", "-k"],
    })


def _alternating4():
    # the even permutations of four points, in lexicographic order, so
    # element 0 is the identity; x * y applies y first
    perms = [
        p for p in itertools.permutations(range(4))
        if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0
    ]
    index = {p: i for i, p in enumerate(perms)}
    return load_group({
        "order": 12,
        "mult": [
            [index[tuple(x[y[k]] for k in range(4))] for y in perms]
            for x in perms
        ],
        "names": ["".join(map(str, p)) for p in perms],
    })


DIHEDRAL8 = _dihedral8()
QUATERNION = _quaternion()
# the first base here with classes that are not closed under inverses:
# the two classes of 3-cycles are inverse to each other
ALTERNATING4 = _alternating4()
