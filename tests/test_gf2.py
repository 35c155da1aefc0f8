import random

import pytest

from conftest import (fan_gms_cost, gf2_mul, gf2_transpose, gms_count_linear,
                      random_invertible_gf2, stabilizer_gms_bound)
from gmsforge.constructions import TDISTILL_FANS, tdistill
from gmsforge.gf2 import (FanLayer, Gf2Matrix, linear_simulate, permutation_matrix,
                          plu_decompose, synthesize_linear, triangular_to_fans)


def all_ones_lower(n):
    return Gf2Matrix.from_rows([[1 if j <= i else 0 for j in range(n)]
                                for i in range(n)])


def all_ones_upper(n):
    return Gf2Matrix.from_rows([[1 if j >= i else 0 for j in range(n)]
                                for i in range(n)])


# -- plu_decompose ----------------------------------------------------------

def test_plu_identity():
    eye = Gf2Matrix.identity(4)
    p, l, u = plu_decompose(eye)
    assert p == (0, 1, 2, 3) and l == eye and u == eye


def test_plu_already_triangular():
    m = Gf2Matrix.from_rows([[1, 1], [0, 1]])
    p, l, u = plu_decompose(m)
    assert p == (0, 1) and l == Gf2Matrix.identity(2) and u == m


def test_plu_random_product_check():
    rng = random.Random(42)
    for _ in range(100):
        m = random_invertible_gf2(rng, 6)
        p, l, u = plu_decompose(m)
        assert l.is_unit_lower() and u.is_unit_upper()
        assert gf2_mul(gf2_mul(permutation_matrix(p), l), u) == m


def test_plu_singular_rejected():
    with pytest.raises(ValueError):
        plu_decompose(Gf2Matrix.from_rows([[1, 1], [1, 1]]))


# -- triangular_to_fans ------------------------------------------------------

def test_fans_identity_empty():
    assert triangular_to_fans(Gf2Matrix.identity(5)) == []


def test_fans_reproduce_upper_example():
    # row 0 spans columns 1 and 2, which reads off as two single-target
    # column fans under the "row t ^= row c" convention
    u = Gf2Matrix.from_rows([[1, 1, 1], [0, 1, 0], [0, 0, 1]])
    layers = triangular_to_fans(u)
    assert linear_simulate(layers, 3) == u
    assert [(layer.control, sorted(layer.targets)) for layer in layers] == \
        [(1, [0]), (2, [0])]


def test_fans_lower_all_ones_sizes():
    layers = triangular_to_fans(all_ones_lower(4))
    assert sorted(len(layer.targets) for layer in layers) == [1, 2, 3]
    assert linear_simulate(layers, 4) == all_ones_lower(4)


def test_fans_reject_non_triangular():
    with pytest.raises(ValueError):
        triangular_to_fans(Gf2Matrix.from_rows([[1, 1], [1, 1]]))


def test_fans_exhaustive_unit_triangular():
    # every unit-triangular matrix up to n = 4, both orientations
    for n in (2, 3, 4):
        positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bits in range(1 << len(positions)):
            rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for k, (i, j) in enumerate(positions):
                if (bits >> k) & 1:
                    rows[i][j] = 1
            upper = Gf2Matrix.from_rows(rows)
            lower = gf2_transpose(upper)
            for t in (upper, lower):
                layers = triangular_to_fans(t)
                assert linear_simulate(layers, n) == t
                assert len(layers) <= n - 1
                assert fan_gms_cost(layers) <= 2 * n - 3


# -- linear_simulate ---------------------------------------------------------

def test_single_cnot_matrix():
    assert linear_simulate([(0, 1)], 2) == Gf2Matrix.from_rows([[1, 0], [1, 1]])


def test_fan_column_structure():
    m = linear_simulate([FanLayer(0, frozenset({1, 2, 3}))], 4)
    assert m.column(0) == 0b1111


def test_tdistill_cnots_match_fan_layers():
    # the CNOT list behind tdistill's action, in the order it applies them
    cnots = [(c, t) for c, ts in TDISTILL_FANS for t in ts]
    layers = [FanLayer(c, frozenset(t)) for c, t in TDISTILL_FANS]
    assert len(cnots) == 34
    m = linear_simulate(cnots, 15)
    assert m == linear_simulate(layers, 15)
    # tdistill's index map is that linear map (bit q of a GF(2) vector is
    # wire q, the basis index's bit 14 - q)
    dest = tdistill().act.dest
    for x in random.Random(34).sample(range(1 << 15), 200):
        bits = sum((x >> (14 - q) & 1) << q for q in range(15))
        image = sum((int(dest[x]) >> (14 - q) & 1) << q for q in range(15))
        assert image == m.apply(bits)


# -- pulse counting ----------------------------------------------------------

def test_count_triangular_all_ones():
    assert gms_count_linear(all_ones_upper(5)) == 7  # 2n-3


def test_count_identity_zero():
    assert gms_count_linear(Gf2Matrix.identity(6)) == 0


def test_count_random_within_bound():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.choice([4, 5, 6, 7, 8])
        m = random_invertible_gf2(rng, n)
        assert gms_count_linear(m) <= 2 * (2 * n - 3)


def test_resynthesis_exact():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.choice([3, 4, 5, 6, 7, 8])
        m = random_invertible_gf2(rng, n)
        layers, perm = synthesize_linear(m)
        assert gf2_mul(permutation_matrix(perm), linear_simulate(layers, n)) == m


def test_stabilizer_bound_values():
    total, breakdown = stabilizer_gms_bound(2)
    assert total == 6
    total, breakdown = stabilizer_gms_bound(15)
    assert total == 162
    assert sum(breakdown.values()) == total
    assert sorted(breakdown.values()) == [2 * 15 - 3, 2 * 15 - 3,
                                          4 * 15 - 6, 4 * 15 - 6]


def test_stabilizer_bound_rejects_small():
    with pytest.raises(ValueError):
        stabilizer_gms_bound(1)
