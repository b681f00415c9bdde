"""The paper's printed commutator tables of u(2) and u(3), the reference the
derived structure constants are checked against.  An entry maps (i, j) to
{k: coefficient}, meaning [X_i, X_j] = sum_k coefficient * X_k; pairs that
commute, the central X0 with every generator among them, are not printed."""

U2_TABLE: dict[tuple[int, int], dict[int, int]] = {
    (3, 2): {1: 2},
    (2, 1): {3: 2},
    (1, 3): {2: 2},
}

U3_TABLE: dict[tuple[int, int], dict[int, int]] = {
    (1, 3): {4: 2}, (1, 4): {3: -2}, (1, 5): {6: 1},
    (1, 6): {5: -1}, (1, 7): {8: -1}, (1, 8): {7: 1},
    (2, 3): {4: -1}, (2, 4): {3: 1}, (2, 5): {6: 1},
    (2, 6): {5: -1}, (2, 7): {8: 2}, (2, 8): {7: -2},
    (3, 4): {1: 2}, (3, 5): {7: -1}, (3, 6): {8: -1},
    (3, 7): {5: 1}, (3, 8): {6: 1}, (4, 5): {8: 1},
    (4, 6): {7: -1}, (4, 7): {6: 1}, (4, 8): {5: -1},
    (5, 6): {1: 2, 2: 2}, (5, 7): {3: -1}, (5, 8): {4: 1},
    (6, 7): {4: -1}, (6, 8): {3: -1}, (7, 8): {2: 2},
}


def mismatches(basis) -> list[tuple[int, int]]:
    """The pairs (i, j) whose bracket_coeffs differ from the printed table of
    u(basis.n), then the (0, i) for which X0 does not commute with X_i."""
    table = U2_TABLE if basis.n == 2 else U3_TABLE
    bad = [pair for pair, coeffs in table.items() if basis.bracket_coeffs(*pair) != coeffs]
    return bad + [(0, i) for i in range(basis.size) if basis.bracket_coeffs(0, i)]
