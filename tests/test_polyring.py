"""Polynomial ring layer: pieces, powers, Hilbert functions, monomial ideals."""

import random
from fractions import Fraction

import pytest

from bfsyz import polyring
from bfsyz.errors import ResourceLimitError
from bfsyz.exactalg import ExactMatrix, load_matrix, rank
from bfsyz.fhmaps import power_ideal
from bfsyz.polyring import (
    GradedIdeal,
    MonomialIdeal,
    MultiPoly,
    PolyRing,
    atomic_dump,
    hilbert_function,
    hilbert_function_details,
    ideal_power,
    initial_ideal_Jab,
    monomial_quotient_hf,
)
from bfsyz.sl2rep import plethysm_index

from blockref import dict_rows, transpose


def ring3():
    return PolyRing(3, "c")


def i22_generators(ring):
    # coefficient polynomials of (c0 x^2 + c1 xy + c2 y^2)^2
    c0, c1, c2 = (ring.variable(i) for i in range(3))
    return [
        c0 * c0,
        2 * (c0 * c1),
        c1 * c1 + 2 * (c0 * c2),
        2 * (c1 * c2),
        c2 * c2,
    ]


def i23_generators():
    ring = PolyRing(4, "c")
    c0, c1, c2, c3 = (ring.variable(i) for i in range(4))
    return ring, [
        c0 * c0,
        2 * (c0 * c1),
        c1 * c1 + 2 * (c0 * c2),
        2 * (c0 * c3) + 2 * (c1 * c2),
        c2 * c2 + 2 * (c1 * c3),
        2 * (c2 * c3),
        c3 * c3,
    ]


# ---------------------------------------------------------------------------
# MultiPoly


def test_poly_arithmetic_and_grading():
    r = ring3()
    c0, c1, c2 = (r.variable(i) for i in range(3))
    p = c0 * c2 - c1 * c1
    assert p.homogeneous_degree == 2
    assert p.coefficient((1, 0, 1)) == 1 and p.coefficient((0, 2, 0)) == -1
    assert (p - p).is_zero()
    assert p.power(2).homogeneous_degree == 4
    q = p + r.one()
    assert q.homogeneous_degree is None
    assert p.evaluate((1, 2, 4)) == 0  # perfect square point
    assert p.evaluate((1, 1, 1)) == 0
    assert p.evaluate((0, 1, 0)) == -1


def test_poly_weight():
    r = ring3()  # variable i has weight 2i - 2
    c0, c1, c2 = (r.variable(i) for i in range(3))
    assert (c0 * c2).weight() == 0
    assert (c1 * c1).weight() == 0
    assert (c0 * c2 - c1 * c1).weight() == 0
    assert (c0 * c1).weight() == -2
    assert (c0 + c2).weight() is None


def poly_from_json(ring, data) -> MultiPoly:
    """The inverse of ``MultiPoly.to_json``."""
    if data["vars"] != ring.variable_names():
        raise ValueError("variable list mismatch")
    return MultiPoly(ring, {tuple(t["exp"]): Fraction(t["coeff"]) for t in data["terms"]})


def test_poly_str_and_json_roundtrip():
    r = ring3()
    c0, c1, c2 = (r.variable(i) for i in range(3))
    p = c0 * c0 - 2 * (c1 * c2) + Fraction(1, 3) * c2
    blob = p.to_json()
    assert blob["vars"] == ["c0", "c1", "c2"]
    assert all("/" in t["coeff"] for t in blob["terms"])
    assert poly_from_json(r, blob) == p
    assert str(c0 * c0 - c1 * c2) == "c0^2 - c1*c2"


def test_poly_validation():
    r = ring3()
    with pytest.raises(ValueError):
        MultiPoly(r, {(1, 0): 1})
    with pytest.raises(ValueError):
        r.variable(0) + PolyRing(3, "z").variable(0)


# ---------------------------------------------------------------------------
# graded pieces


def test_variable_ideal_piece():
    r = ring3()
    ideal = GradedIdeal(r, [r.variable(i) for i in range(3)])
    assert ideal.graded_piece(1).ncols == 3
    assert hilbert_function(ideal, 3) == [1, 0, 0, 0]


def test_zero_ideal_hf():
    r = ring3()
    ideal = GradedIdeal(r, [])
    assert hilbert_function(ideal, 3) == [1, 3, 6, 10]


def test_i22_piece_and_hf():
    r = ring3()
    ideal = GradedIdeal(r, i22_generators(r))
    assert ideal.graded_piece(2).ncols == 5
    assert hilbert_function(ideal, 4) == [1, 3, 1, 0, 0]


def test_echelon_basis_is_reduced_and_spans():
    r = ring3()
    ideal = GradedIdeal(r, i22_generators(r))
    piece = ideal.graded_piece(3)
    assert piece.ncols == 10  # all of S_3
    assert rank(piece, "exact") == piece.ncols
    # each generator times each variable lies in the column span
    basis_cols = dict_rows(transpose(piece))
    index = plethysm_index(3, r.nvars - 1)
    for g in ideal.generators:
        for i in range(3):
            prod = g * r.variable(i)
            row = {index[exp]: coeff for exp, coeff in prod.terms.items()}
            stacked = basis_cols + [row]
            from bfsyz.exactalg.matrix import bareiss_rank_rows

            assert bareiss_rank_rows(stacked, r.dimension(3)) == piece.ncols


def test_piece_echelon_blocks_keep_the_memory_budget():
    # the degree-11 piece of the (2, 4) power ideal is all of S_11; its
    # largest block is 343 x 67 (transposed: 67 spanning columns of weight 0)
    ideal = power_ideal(2, 4)
    assert ideal.graded_piece(11).ncols == 1365
    # the block needs 1.05 MiB: the message rounds the need up, never down to the budget
    with pytest.raises(ResourceLimitError, match=r"dense 343 x 67 needs ~2 MiB, budget is 1 MiB"):
        ideal.graded_piece(11, mem_mb=1)


def test_graded_pieces_never_split_global_entries():
    r = ring3()
    ideals = [GradedIdeal(r, i22_generators(r), sl2_stable=True), GradedIdeal(r, i22_generators(r))]
    assert ideals[0].sl2_stable and not ideals[1].sl2_stable

    def run():
        return [
            ([ideal.piece_dimension_details(k, mode) for k in range(6) for mode in ("exact", "modular")],
             [ideal.graded_piece(k) for k in range(6)])
            for ideal in ideals
        ]

    want = run()
    assert run() == want


def test_piece_monotonicity():
    r = ring3()
    ideal = GradedIdeal(r, i22_generators(r))
    dims = [ideal.graded_piece(k).ncols for k in range(2, 6)]
    assert dims == [5, 10, 15, 21]
    assert all(x <= y for x, y in zip(dims, dims[1:]))


def test_piece_cache_roundtrip(tmp_path):
    r = ring3()
    ideal = GradedIdeal(r, i22_generators(r))
    cold = ideal.graded_piece(3, cache=str(tmp_path))
    files = list(tmp_path.glob("piece-*-deg3.mat"))
    assert len(files) == 1
    warm = ideal.graded_piece(3, cache=str(tmp_path))
    assert warm == cold


def test_piece_cache_with_wrong_shape_is_rebuilt(tmp_path):
    r = ring3()
    ideal = GradedIdeal(r, i22_generators(r))
    cold = ideal.graded_piece(3)
    ideal.graded_piece(2, cache=str(tmp_path))
    (deg2,) = tmp_path.glob("piece-*-deg2.mat")
    deg3 = deg2.with_name(deg2.name.replace("deg2", "deg3"))
    for data in (deg2.read_bytes(), b"BFSYZ-MAT v1 10"):
        deg3.write_bytes(data)
        assert ideal.graded_piece(3, cache=str(tmp_path)) == cold
        assert load_matrix(deg3) == cold


def test_piece_cache_file_is_keyed_by_its_name(tmp_path):
    r = ring3()
    ideal = GradedIdeal(r, i22_generators(r))
    cold = ideal.graded_piece(3, cache=str(tmp_path))
    (path,) = tmp_path.glob("piece-*-deg3.mat")
    assert load_matrix(path, key=path.stem) == cold
    with pytest.raises(ValueError):
        load_matrix(path, key=path.stem.replace("deg3", "deg2"))


def test_atomic_dump_that_fails_leaves_no_temporary_file(tmp_path, monkeypatch):
    path = tmp_path / "m.mat"
    atomic_dump(ExactMatrix(1, 1, {(0, 0): 1}), path)
    old = path.read_bytes()

    def failing_dump(matrix, target, key=None):
        target.write_bytes(b"half a file")
        raise OSError("disk full")

    monkeypatch.setattr(polyring, "dump_matrix", failing_dump)
    with pytest.raises(OSError):
        atomic_dump(ExactMatrix(1, 1, {(0, 0): 2}), path)
    assert [p.name for p in tmp_path.iterdir()] == ["m.mat"]
    assert path.read_bytes() == old


def test_fingerprint_is_order_independent():
    r = ring3()
    gens = i22_generators(r)
    a = GradedIdeal(r, gens).fingerprint()
    b = GradedIdeal(r, gens[::-1]).fingerprint()
    assert a == b
    other = GradedIdeal(r, [r.variable(0)]).fingerprint()
    assert other != a


def test_hf_details_provenance():
    r = ring3()
    ideal = GradedIdeal(r, i22_generators(r))
    details = hilbert_function_details(ideal, 3)
    assert [pv.value for pv in details] == [1, 3, 1, 0]
    assert all(pv.rank.mode == "exact" for pv in details)
    mod = hilbert_function_details(ideal, 3, "modular", rng=random.Random(0))
    assert [pv.value for pv in mod] == [1, 3, 1, 0]
    assert mod[2].rank.mode == "modular" and len(mod[2].rank.primes) == 2


# ---------------------------------------------------------------------------
# ideal powers


def test_ideal_power_identity_and_i22_square():
    r = ring3()
    ideal = GradedIdeal(r, i22_generators(r))
    assert ideal_power(ideal, 1) is ideal
    square = ideal_power(ideal, 2)
    assert square.generator_degrees() == (4,) * len(square.generators)
    assert square.graded_piece(4).ncols == 15  # all of S_4


def test_i23_square_all_products_independent():
    ring, gens = i23_generators()
    ideal = GradedIdeal(ring, gens)
    square = ideal_power(ideal, 2)
    assert len(square.generators) == 28
    assert square.graded_piece(4).ncols == 28


def test_ideal_power_span_dedup():
    r = ring3()
    c0, c1, c2 = (r.variable(i) for i in range(3))
    # duplicate-span generators collapse in the square: g1 * g3 = g1^2 - g1 * g2,
    # and g2 * g3, g3^2 follow too; the products are kept leftmost-first
    g1, g2, g3 = c0 * c2, c1 * c1, c0 * c2 - c1 * c1
    square = ideal_power(GradedIdeal(r, [g1, g2, g3, c0 * c1]), 2)
    assert list(square.generators) == [g1 * g1, g1 * g2, g1 * c0 * c1, g2 * g2, g2 * c0 * c1, (c0 * c1) ** 2]
    assert square.graded_piece(4).ncols == 6


def test_generators_must_be_weight_homogeneous():
    r = ring3()
    c0, c1, c2 = (r.variable(i) for i in range(3))
    # c0 * c1 has weight -2 and c2^2 weight 4
    with pytest.raises(ValueError, match="weight-homogeneous"):
        GradedIdeal(r, [c0 * c2, c0 * c1 + c2 * c2])


# ---------------------------------------------------------------------------
# monomial ideals


def test_jab_generators_2_2():
    j = initial_ideal_Jab(2, 2)
    assert set(j.generators) == {
        (2, 0, 0),
        (0, 2, 0),
        (0, 0, 2),
        (1, 1, 0),
        (0, 1, 1),
    }
    assert monomial_quotient_hf(j, 3) == [1, 3, 1, 0]


def test_jab_a1_is_maximal_ideal():
    j = initial_ideal_Jab(1, 3)
    assert set(j.generators) == {
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    }
    assert monomial_quotient_hf(j, 2) == [1, 0, 0]


def test_jab_top_degree_formula():
    # top nonzero degree of the quotient is floor((b+2)/2) * (a-1)
    for a in range(1, 5):
        for b in range(1, 5):
            c = (b + 2) // 2
            top = c * (a - 1)
            hf = monomial_quotient_hf(initial_ideal_Jab(a, b), top + 2)
            assert hf[top] > 0, (a, b)
            assert hf[top + 1] == 0, (a, b)


def test_jab_2_3_witness():
    j = initial_ideal_Jab(2, 3)
    std = standard_monomials(j, 2)
    assert (1, 0, 1, 0) in std  # c0 c2 survives
    assert monomial_quotient_hf(j, 3)[2:] == [3, 0]


def test_monomial_ideal_minimalization():
    r = ring3()
    j = MonomialIdeal(r, [(1, 0, 0), (2, 0, 0), (1, 1, 0)])
    assert j.generators == ((1, 0, 0),)
    with pytest.raises(ValueError):
        MonomialIdeal(r, [(0, 0, 0)])


def test_initial_ideal_matches_i22_hf():
    # lead-term model and the actual ideal share a Hilbert function
    r = ring3()
    ideal = GradedIdeal(r, i22_generators(r))
    c = 2  # floor((b+2)/2) for b=2
    top = c * 1 + 1
    assert hilbert_function(ideal, top) == monomial_quotient_hf(initial_ideal_Jab(2, 2), top)


def standard_monomials(ideal: MonomialIdeal, k: int) -> list:
    """Degree-k monomials outside the ideal, lex-descending, as the ideal grows them."""
    return ideal._standard_layers(k)[k] if k >= 0 else []


def enumerated_standard_monomials(ideal: MonomialIdeal, k: int) -> list:
    """Reference: every degree-k monomial, tested against every generator."""
    return [
        m for m in ideal.ring.monomials(k)
        if not any(all(g_i <= m_i for g_i, m_i in zip(g, m)) for g in ideal.generators)
    ]


def mixed_degree_ideals():
    r4 = PolyRing(4, "c")
    return [
        MonomialIdeal(ring3(), [(1, 0, 0)]),
        MonomialIdeal(ring3(), [(0, 0, 3), (1, 1, 0), (0, 2, 2)]),
        MonomialIdeal(r4, [(2, 0, 0, 0), (0, 1, 1, 1), (0, 0, 0, 4), (0, 3, 0, 0)]),
        MonomialIdeal(r4, [(0, 0, 1, 0), (1, 0, 0, 2), (3, 2, 0, 0)]),
        MonomialIdeal(PolyRing(2, "c"), [(0, 5), (2, 1)]),
    ]


def test_grown_standard_monomials_match_enumeration():
    cases = [(initial_ideal_Jab(a, b), (b + 2) // 2 * (a - 1) + 2) for a in range(1, 5) for b in range(1, 6)]
    cases += [(ideal, 6) for ideal in mixed_degree_ideals()]
    for ideal, k_max in cases:
        reference = [enumerated_standard_monomials(ideal, k) for k in range(k_max + 1)]
        assert monomial_quotient_hf(ideal, k_max) == [len(ms) for ms in reference], ideal
        for k in range(k_max + 1):
            assert standard_monomials(ideal, k) == reference[k], (ideal, k)
    assert standard_monomials(ideal, -1) == [] and monomial_quotient_hf(ideal, -1) == []


def test_piece_dimensions_list_no_basis_of_a_whole_degree(monkeypatch):
    # the spanning matrix counts its block shapes and lists each block's own
    # rows and multipliers: neither the basis of S_k nor of S_{k - deg g}
    from bfsyz.fhmaps import power_ideal

    ideal = power_ideal(4, 5)
    hf = [1, 6, 21, 56, 105, 150, 165, 120, 63, 20, 0]

    def listed(*args):
        raise AssertionError("a whole degree was listed")

    monkeypatch.setattr(polyring, "plethysm_basis", listed)
    monkeypatch.setattr(PolyRing, "monomials", listed)
    dims = [ideal.piece_dimension_details(k).rank for k in range(len(hf))]
    assert dims == [ideal.ring.dimension(k) - h for k, h in enumerate(hf)]
