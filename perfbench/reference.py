"""Frozen reference values the benchmark checks outputs against.

This is the benchmark's own copy, so that a change to the package's tests
cannot change what the benchmark accepts.
"""

# Largest m <= 100 at which (m, l, a) is not log-concave; 0 = none.
# Row l holds the values for a = 1..10.
TABLE_ROWS = {
    1: (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    2: (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    3: (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    4: (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    5: (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    6: (5, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    7: (5, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    8: (9, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    9: (12, 7, 10, 0, 0, 0, 0, 0, 0, 0),
    10: (13, 7, 10, 0, 0, 0, 0, 0, 0, 0),
    11: (16, 10, 15, 13, 15, 0, 0, 0, 0, 0),
    12: (19, 12, 15, 18, 21, 24, 28, 0, 0, 0),
    13: (20, 14, 20, 19, 21, 25, 28, 32, 35, 39),
    14: (24, 16, 20, 24, 28, 25, 29, 32, 36, 39),
    15: (27, 17, 25, 25, 28, 33, 37, 42, 46, 40),
    16: (30, 20, 25, 25, 29, 33, 38, 42, 47, 51),
    17: (31, 21, 30, 31, 35, 41, 46, 42, 47, 52),
    18: (35, 25, 30, 31, 36, 41, 46, 52, 57, 63),
    19: (39, 25, 35, 37, 42, 41, 47, 52, 58, 63),
    20: (42, 29, 35, 37, 43, 49, 55, 62, 68, 64),
}

# Certificate polynomials X_0..X_5 and Y_0..Y_5, coefficients ascending in t.
POLY_X = {
    0: (1, 1),
    1: (-1, -5, -3, 1),
    2: (-1, -9, -28, -36, -15, 1),
    3: (-4, -44, -189, -407, -458, -254, -53, 1),
    4: (-36, -444, -2249, -6115, -9743, -9397, -5383, -1645, -189, 1),
    5: (-576, -7680, -43268, -135648, -262509, -330705, -275745, -149885,
        -50791, -9683, -711, 1),
}
POLY_Y = {
    0: (1,),
    1: (1, 2, 1),
    2: (0, 0, 1, 2, 1),
    3: (0, 0, 1, 0, -2, 0, 1),
    4: (0, 0, 4, -4, -7, 8, 2, -4, 1),
    5: (0, 0, 36, -60, -35, 110, -37, -40, 35, -10, 1),
}

# run_all() at its defaults: the bounds it must report.
POLYCERT_BOUNDS = {
    "n_max": 200,
    "sign_q_max": 200,
    "chain_q_max": 500,
    "goal_q_max": 500,
    "left_m_max": 2000,
}


def table_csv(l_values, a_values) -> str:
    """The headline CSV export_csv must write for this sub-grid, byte for byte."""
    lines = ["l\\a," + ",".join(str(a) for a in a_values)]
    for l in l_values:
        lines.append(f"{l}," + ",".join(str(TABLE_ROWS[l][a - 1]) for a in a_values))
    return "\n".join(lines) + "\n"
