"""Each shared cross-oracle check fails when one oracle value is wrong."""

import pytest

from symsig import cyclic, selfcheck
from symsig.cyclic import MonomialVector, WeightMultiset
from symsig.cyclotomic import ConsistencyError, CycloElement
from symsig.klein import BinaryTetrahedral, Character


def wrong_phi(phi, d):
    return (phi(d)[0] + 1,) + phi(d)[1:] if d == 3 else phi(d)


def wrong_eigen(eigen, G, q):
    values = list(eigen(G, q).values)
    if q == 5:
        values[1] += G.ctx.one
    return Character(G, values)


def wrong_molien(molien, G, c, q_max):
    coeffs = molien(G, c, q_max)
    if c == 2:
        coeffs[7] += G.ctx.one
    return coeffs


def wrong_count(weights, n, a, q):
    counts = list(weights(n, a, q).counts)
    if q == 9:
        counts[0] += 1
    return WeightMultiset(n, tuple(counts))


def wrong_syzygy(vectors, n):
    s1, s2 = vectors(n)
    one = s1.polys()[2][(0, n - 1)]
    return MonomialVector.from_polys(n, ({}, {(1, 0): -one}, {(0, n - 2): one})), s2


BT = (BinaryTetrahedral,)
CASES = {
    "phi": (selfcheck, "cyclotomic_polynomial", wrong_phi, "check_cyclotomic", ((12,), (), 0),
            "product of cyclotomic polynomials fails at m=12"),
    "inverse": (CycloElement, "inv", lambda inv, x: x, "check_cyclotomic", ((), (24,), 25),
                r"inverse fails in Q\(zeta_24\)"),
    "eigen": (selfcheck, "sym_character_eigen", wrong_eigen, "check_characters", (BT, 8),
              "recurrence != eigen oracle at BT, q=5"),
    "molien": (selfcheck, "molien_coefficients", wrong_molien, "check_characters", (BT, 8),
               "Molien oracle disagrees at BT, q=7"),
    "monomial": (selfcheck, "monomial_weights", wrong_count, "check_monomial",
                 (((5, 2),), range(12)), "monomial oracle disagrees at cyclic:5,2, q=9, s=0"),
    "syzygy": (cyclic, "syzygy_vectors", wrong_syzygy, "check_syzygies", ((4,),),
               "syzygy check failed at n=4"),
}


@pytest.mark.parametrize("case", CASES)
def test_a_wrong_oracle_value_fails(case, monkeypatch):
    owner, name, wrong, check, args, message = CASES[case]
    right = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: wrong(right, *a))
    with pytest.raises(ConsistencyError, match=message):
        getattr(selfcheck, check)(*args)
