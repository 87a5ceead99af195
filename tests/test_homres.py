"""Homology layer: graded modules, Betti windows, regularity, explicit complexes."""

from math import comb

import pytest

from bfsyz.errors import ConventionError, InconclusiveError
from bfsyz.exactalg import default_rng
from bfsyz.fhmaps import ix_kernel_ideal, power_ideal
from bfsyz.homres import (
    BettiEntry,
    BettiTable,
    GradedModule,
    coker_hilbert,
    euler_characteristic_ok,
    exactness_check,
    explicit_betti_formula,
    first_syzygy_table,
    hilbert_numerator,
    ia3_expected_table,
    koszul_complex,
    power_ideal_betti,
    power_locus_betti,
    power_resolution,
    power_strand_formula,
    projective_dimension,
    regularity,
    resolution_check,
    tor_betti,
    verify_explicit_betti,
    verify_ia3_resolution,
    verify_power_betti,
)
from bfsyz.polyring import GradedIdeal, PolyRing


# ---------------------------------------------------------------------------
# graded modules


def maximal_ideal(nvars, prefix="x"):
    ring = PolyRing(nvars, prefix)
    return GradedIdeal(ring, [ring.variable(v) for v in range(nvars)])


def test_module_from_maximal_ideal_dimensions():
    mod = GradedModule.from_ideal(maximal_ideal(3))
    assert [mod.dimension(k) for k in range(5)] == [0, 3, 6, 10, 15]
    assert mod.dimension(-1) == 0


def test_module_mult_commutes():
    mod = GradedModule.from_ideal(maximal_ideal(3))
    assert mod.check_commuting(1)
    assert mod.check_commuting(2)


def test_module_from_power_ideal_commutes():
    mod = GradedModule.from_ideal(power_ideal(2, 2))
    assert mod.check_commuting(2)
    assert mod.check_commuting(3)


def test_power_quotient_dimensions_and_weights():
    mod = GradedModule.power_quotient(2, 2)
    # below b the component is the image of the substitution map
    assert [mod.dimension(k) for k in range(5)] == [1, 5, 15, 28, 45]
    for k in (1, 2, 3):
        ws = mod.basis_weights(k)
        assert len(ws) == mod.dimension(k)
        assert sum(ws) == 0
    assert sorted(mod.surjectivity_certificates()) == [2, 3, 4]


def test_power_quotient_mult_commutes():
    mod = GradedModule.power_quotient(2, 2)
    assert mod.check_commuting(0)
    assert mod.check_commuting(1)
    assert mod.check_commuting(2)


# ---------------------------------------------------------------------------
# tor_betti on known modules


def test_betti_of_maximal_ideal_is_koszul():
    mod = GradedModule.from_ideal(maximal_ideal(3))
    table = tor_betti(mod, 3, 6, t_max=2, seed=5)
    assert table.nonzero() == {(0, 1): 3, (1, 2): 3, (2, 3): 1}
    assert table.value(2, 4) == 0


def test_betti_of_free_module_is_generators_only():
    # a principal ideal is free on its generator; it is not weight-graded, so
    # its basis is unlabelled and the Koszul ranks run unblocked
    ring = PolyRing(3, "x")
    x0, x1, x2 = (ring.variable(v) for v in range(3))
    ideal = GradedIdeal(ring, [x0 * x1 + x2 * x2])
    assert not ideal.weight_graded
    mod = GradedModule.from_ideal(ideal)
    assert mod.basis_weights(3) is None
    table = tor_betti(mod, 3, 5, t_max=3, seed=5)
    assert table.nonzero() == {(0, 2): 1}


def minimal_generator_counts(ideal: GradedIdeal, degrees) -> dict:
    """dim I_j - dim (m I)_j per degree: the beta_{0,j} oracle."""
    ring = ideal.ring
    bumped = GradedIdeal(
        ring, [ring.variable(v) * g for v in range(ring.nvars) for g in ideal.generators]
    )
    rng = default_rng()
    return {
        j: ideal.piece_dimension_details(j, rng=rng).rank - bumped.piece_dimension_details(j, rng=rng).rank
        for j in degrees
    }


def test_betti_generator_row_matches_piece_counts():
    ideal = power_ideal(2, 2)
    mod = GradedModule.from_ideal(ideal)
    table = tor_betti(mod, 3, 6, seed=5)  # no strand cap: full triangle
    counts = minimal_generator_counts(ideal, range(2, 6))
    for j in range(2, 6):
        assert table.value(0, j) == counts[j]


def test_betti_window_and_strand_cap():
    mod = GradedModule.from_ideal(maximal_ideal(2))
    table = tor_betti(mod, 2, 6, t_max=1, seed=5)
    assert table.covers(1, 2)
    assert not table.covers(1, 4)
    with pytest.raises(KeyError):
        table.value(1, 4)


def test_betti_euler_characteristic_consistency():
    mod = GradedModule.from_ideal(power_ideal(2, 2))
    table = tor_betti(mod, 3, 7, seed=5)
    for j in range(2, 7):
        assert euler_characteristic_ok(mod, table, j)


def test_betti_modular_agrees_with_exact_here():
    mod = GradedModule.from_ideal(maximal_ideal(3))
    exact = tor_betti(mod, 3, 5, t_max=2, mode="exact", seed=5)
    modular = tor_betti(mod, 3, 5, t_max=2, mode="modular", seed=5)
    assert {k: e.value for k, e in exact.entries.items()} == {
        k: e.value for k, e in modular.entries.items()
    }
    # entries fed by a genuine rank carry modular provenance; the generator
    # entry (0, 1) only touches the zero map from the empty degree-0 piece
    for key in [(1, 2), (2, 3)]:
        assert modular.entries[key].mode == "modular"
        assert len(modular.entries[key].primes) >= 2
    assert modular.entries[(0, 1)].mode == "exact"


def test_betti_threads_match_serial():
    mod = GradedModule.from_ideal(power_ideal(2, 2))
    one = tor_betti(mod, 3, 7, t_max=4, seed=9, threads=1)
    two = tor_betti(mod, 3, 7, t_max=4, seed=9, threads=3)
    assert one.entries == two.entries


def test_betti_table_json_and_render():
    mod = GradedModule.from_ideal(maximal_ideal(3))
    table = tor_betti(mod, 3, 5, t_max=2, seed=5)
    blob = table.to_json()
    assert blob["nvars"] == 3
    recs = {(r["i"], r["j"]): r["value"] for r in blob["entries"]}
    assert recs[(1, 2)] == 3
    total = table.render("total")
    internal = table.render("internal")
    assert "strand" in total.splitlines()[0]
    assert "internal" in internal.splitlines()[0]
    # the grid below the labelled header is labelling-independent
    assert total.splitlines()[2:] == internal.splitlines()[2:]
    with pytest.raises(ValueError):
        table.render("diagonal")


def test_first_syzygy_table_requires_cyclic():
    mod = GradedModule.from_ideal(maximal_ideal(2))
    table = tor_betti(mod, 2, 4, t_max=2, seed=5)
    with pytest.raises(ConventionError):
        first_syzygy_table(table)


# ---------------------------------------------------------------------------
# the power locus


def test_power_locus_2_2_table():
    res = power_locus_betti(2, 2, seed=7)
    assert res.quotient_table.nonzero() == {
        (0, 0): 1,
        (1, 3): 7,
        (2, 4): 10,
        (3, 5): 5,
        (4, 6): 1,
    }
    assert res.ideal_table.nonzero() == {(0, 3): 7, (1, 4): 10, (2, 5): 5, (3, 6): 1}
    assert all(e.mode == "exact" for e in res.ideal_table.entries.values())


def test_power_locus_2_2_matches_direct_kernel_route():
    res = power_locus_betti(2, 2, seed=7)
    ideal = ix_kernel_ideal(2, 2)
    direct = tor_betti(GradedModule.from_ideal(ideal), 5, 9, t_max=4, seed=7)
    for key, entry in direct.entries.items():
        if res.ideal_table.covers(*key):
            assert res.ideal_table.value(*key) == entry.value


def test_power_locus_regularity_and_pd_2_2():
    res = power_locus_betti(2, 2, seed=7)
    assert regularity(res.ideal_table) == 3
    assert projective_dimension(res.ideal_table) == 3
    assert regularity(res.quotient_table) == 2
    assert projective_dimension(res.quotient_table) == 4


def test_verify_explicit_betti_2_2_both_tables():
    res = power_locus_betti(2, 2, seed=7)
    for table, kind in [(res.ideal_table, "ideal"), (res.quotient_table, "quotient")]:
        rep = verify_explicit_betti(2, 2, table)
        assert rep["ok"], rep
        assert rep["table_kind"] == kind
        assert rep["closed_forms"]["beta_1"]["match"]
        assert rep["closed_forms"]["beta_d"]["match"]


def test_explicit_betti_formula_values():
    assert explicit_betti_formula(2, 2) == {1: 7, 2: 10, 3: 5, 4: 1}
    assert explicit_betti_formula(3, 2)[1] == comb(9, 3) - comb(11, 2)


def test_verify_explicit_betti_3_2():
    res = power_locus_betti(3, 2, seed=7, threads=2)
    rep = verify_explicit_betti(3, 2, res.ideal_table)
    assert rep["ok"], rep
    assert [r["computed"] for r in rep["entries"]] == [29, 84, 102, 64, 21, 3]
    assert rep["projective_dimension"]["computed"] == 5


def test_power_quotient_mixed_modes_at_3_2():
    res = power_locus_betti(3, 2, seed=7, threads=2)
    modes = {e.mode for e in res.ideal_table.entries.values()}
    assert modes == {"exact", "modular"}
    modular = [e for e in res.ideal_table.entries.values() if e.mode == "modular"]
    assert all(len(e.primes) >= 2 for e in modular)


# ---------------------------------------------------------------------------
# regularity guard rails


def toy_table(entries, nvars=2, i_max=2, t_max=2, j_max=4, unknown=()):
    from bfsyz.homres import BettiEntry

    full = {}
    for i in range(i_max + 1):
        for j in range(i, min(j_max, i + t_max) + 1):
            full[(i, j)] = BettiEntry(entries.get((i, j), 0), "exact")
    for key in unknown:
        full.pop(key, None)
    return BettiTable(nvars, i_max, t_max, j_max, full, set(unknown))


def test_regularity_rejects_unknown_entries():
    table = toy_table({(0, 1): 1}, unknown=[(2, 4)])
    with pytest.raises(InconclusiveError):
        regularity(table)


def test_regularity_rejects_short_homological_window():
    table = toy_table({(0, 1): 1}, nvars=5)
    with pytest.raises(InconclusiveError):
        regularity(table)


def test_regularity_rejects_missing_guard_strand():
    table = toy_table({(0, 2): 1})  # top strand 2 = t_max, strand 3 absent
    with pytest.raises(InconclusiveError):
        regularity(table)


def test_regularity_accepts_guarded_strand():
    table = toy_table({(0, 1): 1, (1, 2): 1})
    assert regularity(table) == 1
    assert projective_dimension(table) == 1


# ---------------------------------------------------------------------------
# hilbert numerator


def test_hilbert_numerator_power_locus_2_2():
    mod = GradedModule.power_quotient(2, 2)
    hf = [mod.dimension(k) for k in range(13)]
    num = hilbert_numerator(hf, 5)
    assert num[:7] == [1, 0, 0, -7, 10, -5, 1]
    assert not any(num[7:])


def test_hilbert_numerator_maximal_ideal_power():
    # the d-th power of the maximal ideal in 2 variables, as an ideal
    d = 3
    hf = [0 if k < d else k + 1 for k in range(9)]
    num = hilbert_numerator(hf, 2)
    assert num[d] == d + 1
    assert num[d + 1] == -d
    assert not any(v for j, v in enumerate(num) if j not in (d, d + 1))


def test_hilbert_numerator_short_window_is_inconclusive():
    with pytest.raises(InconclusiveError):
        hilbert_numerator([1, 5, 15], 5)
    with pytest.raises(InconclusiveError):
        hilbert_numerator([1, 2, 4, 8, 16, 32], 2)  # no polynomial tail


# ---------------------------------------------------------------------------
# two-strand powers


def test_power_strand_formula_2_3():
    assert power_strand_formula(2, 3) == {
        (0, 4): 28,
        (1, 5): 56,
        (2, 6): 28,
        (2, 7): 8,
        (3, 8): 7,
    }


def test_verify_power_betti_2_2():
    table = power_ideal_betti(2, 2, 1, seed=7)
    rep = verify_power_betti(2, 2, table)
    assert rep["ok"], rep
    assert rep["regularity"]["computed"] == 3


def test_verify_power_betti_2_3():
    table = power_ideal_betti(2, 3, 2, seed=7)
    rep = verify_power_betti(2, 3, table)
    assert rep["ok"], rep
    # every nonzero entry is an expected one: none is reported expecting 0
    assert {(r["i"], r["j"]) for r in rep["entries"]} == set(power_strand_formula(2, 3))
    assert rep["regularity"] == {"expected": 5, "computed": 5, "match": True}


def test_verify_power_betti_reports_an_unexpected_entry():
    table = power_ideal_betti(2, 2, 1, seed=7)
    key = next(k for k, e in sorted(table.entries.items()) if k[0] == 1 and not e.value)
    table.entries[key] = BettiEntry(1, "exact")
    rep = verify_power_betti(2, 2, table)
    assert not rep["ok"]
    assert {"i": key[0], "j": key[1], "expected": 0, "computed": 1, "match": False} in rep["entries"]


def test_verify_power_betti_rejects_degenerate_range():
    table = power_ideal_betti(2, 2, 1, seed=7)
    with pytest.raises(ValueError):
        verify_power_betti(1, 2, table)


# ---------------------------------------------------------------------------
# cubic-range tables


def test_ia3_expected_table_values():
    assert ia3_expected_table(2) == {(0, 2): 7, (1, 3): 8, (1, 4): 3, (2, 5): 8, (3, 6): 3}
    assert ia3_expected_table(1) == {(0, 1): 4, (1, 2): 6, (2, 3): 4, (3, 4): 1}


def test_verify_ia3_resolution_a2():
    rep = verify_ia3_resolution(2, seed=7)
    assert rep["ok"], rep
    assert rep["in_closed_form_range"]
    assert rep["regularity"]["computed"] == 3


def test_verify_ia3_resolution_a1_boundary():
    rep = verify_ia3_resolution(1, seed=7)
    assert rep["ok"], rep
    assert not rep["in_closed_form_range"]
    assert "note" in rep
    assert rep["regularity"]["computed"] == 1


# ---------------------------------------------------------------------------
# cokernel dimensions


def test_coker_hilbert_2_2():
    assert coker_hilbert(2, 2, 3) == [0, 1, 0, 0]


def test_coker_hilbert_1_3_vanishes():
    assert coker_hilbert(1, 3, 4) == [0, 0, 0, 0, 0]


# ---------------------------------------------------------------------------
# explicit complexes


def test_koszul_complex_is_exact_off_degree_zero():
    ring = PolyRing(3, "x")
    rep = exactness_check(koszul_complex(ring), (0, 5), seed=7)
    assert rep["exact_in_positive_positions"]
    assert rep["nonzero"] == [[0, 0, 1]]


def test_koszul_complex_weighted_ring():
    ring = PolyRing(4, "z")
    rep = exactness_check(koszul_complex(ring), 4, seed=7)
    assert rep["nonzero"] == [[0, 0, 1]]


def test_explicit_complex_rejects_inhomogeneous_entries():
    ring = PolyRing(2, "x")
    x0 = ring.variable(0)
    with pytest.raises(ConventionError):
        from bfsyz.homres import ExplicitComplex

        ExplicitComplex(ring, [(0,), (2,)], [{(0, 0): x0}])


def test_explicit_complex_rejects_nonzero_square():
    ring = PolyRing(2, "x")
    x0, x1 = ring.variable(0), ring.variable(1)
    from bfsyz.homres import ExplicitComplex

    with pytest.raises(ConventionError):
        ExplicitComplex(ring, [(0,), (1,), (2,)], [{(0, 0): x0}, {(0, 0): x1}])
    # the honest Koszul square passes
    ExplicitComplex(ring, [(0,), (1, 1), (2,)], [{(0, 0): x0, (0, 1): x1}, {(0, 0): -x1, (1, 0): x0}])


# ---------------------------------------------------------------------------
# the mapping-cone resolution


def test_power_resolution_2_2_shape():
    res = power_resolution(2, 2, seed=7)
    C = res.complex
    assert [len(g) for g in C.gen_degrees] == [5, 5, 1]
    assert C.gen_degrees[0] == (2,) * 5
    assert C.gen_degrees[1] == (3,) * 5
    assert C.gen_degrees[2] == (5,)
    assert res.solution_dim == 1
    assert res.certificate["resolves"]


def test_power_resolution_2_2_resolves_the_ideal():
    res = power_resolution(2, 2, seed=7)
    rep = resolution_check(res.complex, power_ideal(2, 2), (0, 6), seed=7)
    assert rep["resolves"]
    assert rep["ideal_dimensions"][2] == 5


def test_power_resolution_2_3_shape_matches_strands():
    res = power_resolution(2, 3, seed=7)
    C = res.complex
    from collections import Counter

    shapes = [dict(Counter(degs)) for degs in C.gen_degrees]
    assert shapes == [{4: 28}, {5: 56}, {6: 28, 7: 8}, {8: 7}]
    assert res.certificate["resolves"]
    expected = power_strand_formula(2, 3)
    for (i, j), count in expected.items():
        assert shapes[i].get(j, 0) == count


def test_power_resolution_is_deterministic():
    one = power_resolution(2, 2, seed=13)
    two = power_resolution(2, 2, seed=13)
    assert one.complex.diffs == two.complex.diffs
    assert one.attempts == two.attempts
