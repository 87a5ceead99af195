"""Homology layer: graded modules, Betti windows, regularity, explicit complexes."""

import gc
import json
from math import comb
from typing import NamedTuple

import pytest

from bfsyz import homres
from bfsyz.errors import ConventionError, InconclusiveError, ResourceLimitError
from bfsyz.exactalg import RankResult, WeightBlocks, _modp, blocked_rank_details, default_rng, matrix
from bfsyz.fhmaps import ix_kernel_ideal, power_ideal
from bfsyz.homres import (
    BettiEntry,
    BettiTable,
    ExplicitComplex,
    GradedModule,
    coker_hilbert,
    euler_characteristic_ok,
    exactness_check,
    explicit_betti_formula,
    first_syzygy_table,
    ia3_expected_table,
    initial_ideal_regularity,
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
from bfsyz.sl2rep import koszul_image_weights

from blockref import split_blocks


# ---------------------------------------------------------------------------
# graded modules


def maximal_ideal(nvars, prefix="x"):
    ring = PolyRing(nvars, prefix)
    return GradedIdeal(ring, [ring.variable(v) for v in range(nvars)])


def compose(second, first) -> dict:
    """{(row, col): coeff} of the composite of two multiplication adjacencies."""
    out: dict = {}
    for c, pairs in enumerate(first):
        for mid, cf in pairs:
            for r, cs in second[mid]:
                key = (r, c)
                s = out.get(key, 0) + cf * cs
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
    return out


def check_commuting(mod, k: int) -> bool:
    """The multiplication maps M_k -> M_{k+2} commute pairwise (the module
    axiom over a commutative ring)."""
    nv = mod.ring.nvars
    first = mod.mult_adjacency(k)
    second = mod.mult_adjacency(k + 1)
    return all(
        compose(second[u], first[v]) == compose(second[v], first[u])
        for u in range(nv)
        for v in range(u + 1, nv)
    )


def test_module_from_maximal_ideal_dimensions():
    mod = GradedModule.from_ideal(maximal_ideal(3))
    assert [mod.dimension(k) for k in range(5)] == [0, 3, 6, 10, 15]
    assert mod.dimension(-1) == 0


def test_module_mult_commutes():
    mod = GradedModule.from_ideal(maximal_ideal(3))
    assert check_commuting(mod, 1)
    assert check_commuting(mod, 2)


def test_module_from_power_ideal_commutes():
    mod = GradedModule.from_ideal(power_ideal(2, 2))
    assert check_commuting(mod, 2)
    assert check_commuting(mod, 3)


def test_power_quotient_dimensions_and_weights():
    mod = GradedModule.power_quotient(2, 2)
    # below b the component is the image of the substitution map
    assert [mod.dimension(k) for k in range(5)] == [1, 5, 15, 28, 45]
    for k in (1, 2, 3):
        ws = mod.basis_weights(k)
        assert len(ws) == mod.dimension(k)
        assert sum(ws) == 0
    # the per-degree surjectivity reports collected by the pieces
    assert sorted(mod._certificates) == [2, 3, 4]


def test_power_quotient_mult_commutes():
    mod = GradedModule.power_quotient(2, 2)
    assert check_commuting(mod, 0)
    assert check_commuting(mod, 1)
    assert check_commuting(mod, 2)


# ---------------------------------------------------------------------------
# tor_betti on known modules


def test_betti_of_maximal_ideal_is_koszul():
    mod = GradedModule.from_ideal(maximal_ideal(3))
    table = tor_betti(mod, 3, 6, t_max=2, seed=5)
    assert table.nonzero() == {(0, 1): 3, (1, 2): 3, (2, 3): 1}
    assert table.value(2, 4) == 0


def test_betti_of_free_module_is_generators_only():
    # a principal ideal is free on its generator, here of weight 0
    ring = PolyRing(3, "x")
    x0, x1, x2 = (ring.variable(v) for v in range(3))
    mod = GradedModule.from_ideal(GradedIdeal(ring, [x0 * x2 + x1 * x1]))
    # x0, x1, x2 times the generator, led by x0^2 x2, x0 x1^2 and x1^3
    assert mod.basis_weights(3) == [-2, 0, 2]
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


def test_power_locus_json_is_thread_independent():
    # the rank tasks share the module and read their own slabs' blocks
    one = power_locus_betti(3, 2, seed=1, threads=1)
    two = power_locus_betti(3, 2, seed=1, threads=2)
    assert one.quotient_table.to_json() == two.quotient_table.to_json()
    assert one.ideal_table.to_json() == two.ideal_table.to_json()


def test_tor_betti_never_splits_koszul_slabs():
    module = GradedModule.power_quotient(2, 2)
    # the first run builds the pieces, their surjectivity certificates and
    # the multiplication maps; the second ranks the slabs only
    want = tor_betti(module, 6, 9, t_max=3, seed=1)
    got = tor_betti(module, 6, 9, t_max=3, seed=1)
    assert got.to_json() == want.to_json()


def test_tor_betti_builds_each_slab_side_once(monkeypatch):
    # the columns of d(i, t) are the rows of d(i + 1, t - 1): one build each
    import bfsyz.homres as homres

    want = tor_betti(GradedModule.power_quotient(2, 2), 6, 9, t_max=3, seed=1)
    keys, builds = [], []
    side, local = homres._slab_side, homres._local_indices

    def spy_side(module, i, t, keep):
        keys.append((i, t))
        return side(module, i, t, keep)

    def spy_local(*args):
        builds.append(args)
        return local(*args)

    monkeypatch.setattr(homres, "_slab_side", spy_side)
    monkeypatch.setattr(homres, "_local_indices", spy_local)
    got = tor_betti(GradedModule.power_quotient(2, 2), 6, 9, t_max=3, seed=1)
    assert got.to_json() == want.to_json()
    assert len(keys) > len(set(keys)) and len(builds) == len(set(keys))


def test_weight_breaking_module_is_refused_before_any_rank(monkeypatch):
    import bfsyz.homres as homres

    honest = GradedModule._mult_power_quotient

    def tampered(self, k):
        adj = honest(self, k)
        if k != 1:
            return adj
        # x_0 sends one basis element to a row of the wrong weight
        dst = self.basis_weights(k + 1)
        cols = list(adj[0])
        c = next(c for c, pairs in enumerate(cols) if pairs)
        r, coeff = cols[c][0]
        wrong = next(s for s, w in enumerate(dst) if w != dst[r])
        cols[c] = ((wrong, coeff),) + cols[c][1:]
        return [tuple(cols)] + list(adj[1:])

    def ranked(*args, **kw):
        raise AssertionError("a rank was computed")

    monkeypatch.setattr(GradedModule, "_mult_power_quotient", tampered)
    monkeypatch.setattr(homres, "blocked_rank_details", ranked)
    with pytest.raises(ConventionError, match="weight"):
        tor_betti(GradedModule.power_quotient(2, 2), 4, 6, t_max=2, seed=1)


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
    # I(X)_k is never S_k, so no window of the tables bounds their regularity
    for table in (res.ideal_table, res.quotient_table):
        assert table.full_degree is None
        with pytest.raises(InconclusiveError):
            regularity(table)
    assert projective_dimension(res.ideal_table) == 3
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
    res = power_locus_betti(3, 2, "modular", seed=7, threads=2)
    modes = {e.mode for e in res.ideal_table.entries.values()}
    assert modes == {"exact", "modular"}
    modular = [e for e in res.ideal_table.entries.values() if e.mode == "modular"]
    assert all(len(e.primes) >= 2 for e in modular)


# ---------------------------------------------------------------------------
# ranks by exactness: the Koszul complex of S below the generation degree,
# and the homology walk

# the tables of criteria 3 and 4
FORMULA_CASES = [(2, 2), (3, 2), (2, 3), (4, 2)]


def eliminated_slab_ranks(module, i, t):
    """rank d(i, t) and its nonzero block ranks, every block of the full slab
    eliminated exactly."""
    weyl, module.weyl = module.weyl, False
    try:
        _nrows, _ncols, blocks = homres.koszul_slab(module, i, t)
    finally:
        module.weyl = weyl
    ranks: dict = {}
    res = blocked_rank_details(blocks, "exact", block_ranks=ranks)
    return res.rank, ranks


@pytest.mark.parametrize("a,b", FORMULA_CASES)
def test_koszul_formula_equals_eliminated_rank(a, b):
    module = GradedModule.power_quotient(a, b)
    ring = module.ring
    # I(X) starts in degree b + 1: below it M is S
    assert [module.dimension(u) for u in range(b + 1)] == [ring.dimension(u) for u in range(b + 1)]
    assert module.dimension(b + 1) < ring.dimension(b + 1)
    for i in range(1, ring.nvars + 1):
        for t in range(b):
            ranks = koszul_image_weights(ring.nvars - 1, i, i + t)
            assert (sum(ranks.values()), ranks) == eliminated_slab_ranks(module, i, t), (i, t)


@pytest.mark.parametrize("a,b", FORMULA_CASES)
def test_no_slab_below_the_generation_degree_is_built(monkeypatch, a, b):
    built = []
    slab = homres.koszul_slab

    def spy(module, i, t, *args, **kw):
        built.append(t)
        return slab(module, i, t, *args, **kw)

    monkeypatch.setattr(homres, "koszul_slab", spy)
    power_locus_betti(a, b, seed=1)
    assert built and min(built) == b


def test_an_ideal_module_gets_no_formula(monkeypatch):
    def refused(*args):
        raise AssertionError("an ideal module was ranked by formula")

    monkeypatch.setattr(homres, "koszul_image_weights", refused)
    assert power_ideal_betti(2, 3, 1, seed=1).nonzero() == {(0, 2): 7, (1, 3): 8, (1, 4): 3, (2, 5): 8, (3, 6): 3}
    assert tor_betti(GradedModule.from_ideal(maximal_ideal(3)), 3, 6, t_max=2, seed=5).value(1, 2) == 3


class Walk(NamedTuple):
    key: tuple  # (i, t)
    result: RankResult
    block_ranks: dict
    incoming: tuple | None
    plain: RankResult  # the same rank without the incoming ranks
    plain_ranks: dict
    saved: int  # block eliminations the incoming ranks saved


def spy_on_walks(monkeypatch) -> list:
    """Rank every Koszul slab of a one-thread ``tor_betti`` a second time
    without its incoming ranks, from the same generator state, and record
    both as a :class:`Walk`."""
    walks = []
    count = [0]
    last = []
    slab, rank = homres.koszul_slab, homres.blocked_rank_details

    def counted(fn):
        def wrapper(*args):
            count[0] += 1
            return fn(*args)

        return wrapper

    def spy_slab(module, i, t, *args, **kw):
        last[:] = [(i, t)]
        return slab(module, i, t, *args, **kw)

    def spy_rank(blocks, mode, **kw):
        state = kw["rng"].getstate()
        start = count[0]
        res = rank(blocks, mode, **kw)
        walked = count[0] - start
        kw["rng"].setstate(state)
        plain_ranks: dict = {}
        plain = rank(blocks, mode, **{**kw, "incoming": None, "block_ranks": plain_ranks})
        saved = count[0] - start - 2 * walked
        walks.append(Walk(last[0], res, kw["block_ranks"], kw["incoming"], plain, plain_ranks, saved))
        return res

    monkeypatch.setattr(matrix, "bareiss_rank_rows", counted(matrix.bareiss_rank_rows))
    monkeypatch.setattr(matrix._kernel, "rank_mod_p_dense", counted(matrix._kernel.rank_mod_p_dense))
    monkeypatch.setattr(homres, "koszul_slab", spy_slab)
    monkeypatch.setattr(homres, "blocked_rank_details", spy_rank)
    return walks


@pytest.mark.parametrize(
    "run",
    [pytest.param(lambda ab=ab: power_locus_betti(*ab, "exact", seed=1), id=f"locus-{ab[0]}-{ab[1]}")
     for ab in [(2, 2), (3, 2), (2, 3)]]
    + [pytest.param(lambda: power_ideal_betti(2, 3, 1, "exact", seed=1), id="ideal-2-3-1")],
)
def test_exact_homology_walk_equals_elimination(monkeypatch, run):
    walks = spy_on_walks(monkeypatch)
    run()
    for walk in walks:
        assert walk.result == walk.plain, walk.key
        assert walk.block_ranks == walk.plain_ranks, walk.key
    assert sum(walk.saved for walk in walks) > 0


@pytest.mark.parametrize(
    "run",
    [pytest.param(lambda: power_locus_betti(2, 3, seed=1).quotient_table, id="locus-2-3"),
     pytest.param(lambda: power_ideal_betti(2, 3, 1, "modular", seed=1), id="ideal-2-3-1-modular")],
)
def test_rank_inferred_from_a_modular_incoming_rank_is_modular(monkeypatch, run):
    walks = spy_on_walks(monkeypatch)
    table = run()
    # a modular incoming rank reaches only the slabs that border no other
    # entry of the window: those of the top strand
    modular_in = [w for w in walks if w.incoming and w.incoming[0].mode == "modular"]
    assert {w.key[1] for w in modular_in} == {table.t_max}
    leaned = [w for w in modular_in if w.saved]
    assert leaned
    for walk in leaned:
        i, t = walk.key
        # a top-strand slab: it borders no other entry of the window
        assert t == table.t_max and walk.result.rank == walk.plain.rank
        incoming = set(walk.incoming[0].primes)
        assert walk.result.mode == "modular" and incoming <= set(walk.result.primes)
        entry = table.entries[(i, i + t)]
        assert incoming <= set(entry.primes)
        if table.meta["mode"] == "modular":
            assert entry.mode == "modular"
        elif entry.value == 0:
            # in auto a modular 0 is an exact 0: H'_w >= H_w >= 0 at every weight
            assert entry.mode == "exact"
        else:
            # the leaned blocks stay modular while their incoming block is
            assert entry.mode == "modular"


def test_power_locus_2_3_is_thread_independent():
    # its modular top strand leans on modular incoming ranks
    one = power_locus_betti(2, 3, seed=1, threads=1)
    two = power_locus_betti(2, 3, seed=1, threads=2)
    assert one.quotient_table.to_json() == two.quotient_table.to_json()
    assert one.ideal_table.to_json() == two.ideal_table.to_json()


@pytest.mark.parametrize("threads", [1, 2])
def test_koszul_ranks_certify_each_other(threads):
    # in auto, where the homology mod p vanishes, the ranks around it are
    # exact: only the four nonzero strand entries of (2, 3) stay modular,
    # which need the top-strand blocks that the walk infers
    res = power_locus_betti(2, 3, seed=1, threads=threads)
    entries = res.ideal_table.entries
    modular = {key: e.value for key, e in entries.items() if e.mode == "modular"}
    assert len(entries) == 48
    assert modular == {(2, 6): 182, (3, 7): 126, (4, 8): 46, (5, 9): 7}
    assert all(len(entries[key].primes) >= 2 for key in modular)
    assert all(e.mode == "exact" for e in power_locus_betti(3, 2, seed=1, threads=threads).ideal_table.entries.values())
    # the modular and exact modes are left as they are
    assert {e.mode for e in power_locus_betti(3, 2, "modular", seed=1).ideal_table.entries.values()} == {"exact", "modular"}


@pytest.mark.parametrize("a,b", [(3, 2), (2, 3)])
def test_short_kernel_values_are_never_labelled_exact(monkeypatch, a, b):
    honest = power_locus_betti(a, b, seed=1).quotient_table.entries
    short_kernel(monkeypatch)
    table = power_locus_betti(a, b, seed=1).quotient_table
    wrong = {key for key, e in table.entries.items() if e.value != honest[key].value}
    assert wrong
    assert all(table.entries[key].mode == "modular" for key in wrong)
    # the primes are drawn and kept as before
    assert {key: e.primes for key, e in table.entries.items()} == {key: e.primes for key, e in honest.items()}


def test_homology_walk_lends_the_incoming_strength():
    # columns V_2 + V_0, rows V_2, d the projection onto V_2, and d_in of
    # rank 1 onto the V_0 at weight 0: the homology vanishes at weight 0, so
    # the weight-2 block is rank C - in = 1 without elimination
    blocks = WeightBlocks({
        -2: (1, 1, {}), 0: (1, 2, {(0, 0): 1}), 2: (1, 1, {(0, 0): 1}),
    })
    exact_in = (RankResult(1, "exact"), {0: 1})
    modular_in = (RankResult(1, "modular", (11, 13)), {0: 1})
    ranks: dict = {}
    assert blocked_rank_details(blocks, weyl=True, incoming=exact_in, block_ranks=ranks) == (3, "exact", (), False)
    assert ranks == {0: 1, 2: 1}
    assert blocked_rank_details(blocks, weyl=True, incoming=modular_in) == (3, "modular", (11, 13), False)
    res = blocked_rank_details(blocks, "modular", primes=[5, 7], weyl=True, incoming=modular_in)
    assert res == (3, "modular", (5, 7, 11, 13), False)
    # no walk without an incoming rank, or when the columns are no representation
    assert blocked_rank_details(blocks, weyl=True) == (3, "exact", (), False)
    assert blocked_rank_details(blocks, weyl=True, sl2_columns=False, incoming=modular_in).mode == "exact"


def test_block_strengths():
    # the blocks of test_homology_walk_lends_the_incoming_strength
    blocks = WeightBlocks({
        -2: (1, 1, {}), 0: (1, 2, {(0, 0): 1}), 2: (1, 1, {(0, 0): 1}),
    })
    strengths: dict = {}
    blocked_rank_details(blocks, weyl=True, incoming=(RankResult(1, "exact"), {0: 1}), strengths=strengths)
    assert strengths == {0: "exact", 2: "exact"}
    modular_in = (RankResult(1, "modular", (11, 13)), {0: 1})
    blocked_rank_details(blocks, "modular", primes=[5, 7], weyl=True, incoming=modular_in, strengths=strengths)
    assert strengths == {0: "exact", 2: "leaned"}
    # below full rank mod p a rank is a lower bound; an empty block is exact
    square = WeightBlocks({0: (2, 2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}), 1: (1, 1, {})})
    strengths = {}
    assert blocked_rank_details(square, "modular", primes=[5, 7], strengths=strengths).rank == 1
    assert strengths == {0: "lower", 1: "exact"}
    strengths = {}
    blocked_rank_details(square, "exact", strengths=strengths)
    assert strengths == {0: "exact", 1: "exact"}


# ---------------------------------------------------------------------------
# regularity guard rails


def toy_table(entries, nvars=2, i_max=2, t_max=2, j_max=4, unknown=(), full_degree=None):
    full = {}
    for i in range(i_max + 1):
        for j in range(i, min(j_max, i + t_max) + 1):
            full[(i, j)] = BettiEntry(entries.get((i, j), 0), "exact")
    for key in unknown:
        full.pop(key, None)
    return BettiTable(nvars, i_max, t_max, j_max, full, set(unknown), full_degree=full_degree)


def short_kernel(monkeypatch):
    """Make every mod-p rank one short of the true rank, the primes agreeing."""
    real = _modp.rank_mod_p_dense
    monkeypatch.setattr(_modp, "rank_mod_p_dense", lambda a, primes: max(real(a, primes) - 1, 0))


def test_initial_ideal_route_escalates_a_modular_deficit(monkeypatch):
    want = initial_ideal_regularity(2, 3, "modular")
    assert want["hf_agree"] and want["value"] == 3
    ranked = [rec for rec in want["hf_power_provenance"] if rec["mode"] == "modular"]
    assert ranked and all(len(rec["primes"]) == 2 for rec in ranked)
    short_kernel(monkeypatch)
    # every modular piece dimension falls short, and each escalates to exact
    got = initial_ideal_regularity(2, 3, "modular")
    provenance = got.pop("hf_power_provenance")
    assert got == {k: v for k, v in want.items() if k != "hf_power_provenance"}
    assert provenance == [
        {**rec, "mode": "exact", "escalated": True} if rec["mode"] == "modular" else rec
        for rec in want["hf_power_provenance"]
    ]


def test_initial_ideal_route_over_budget_is_inconclusive(monkeypatch):
    short_kernel(monkeypatch)

    def over_budget(rows, ncols):
        raise ResourceLimitError("exact rows over the budget")

    monkeypatch.setattr(matrix, "bareiss_rank_rows", over_budget)
    with pytest.raises(InconclusiveError):
        initial_ideal_regularity(2, 3, "modular")


def test_regularity_rejects_unknown_entries():
    table = toy_table({(0, 1): 1}, unknown=[(2, 4)], full_degree=1)
    with pytest.raises(InconclusiveError, match="unknown"):
        regularity(table)


def test_regularity_rejects_short_homological_window():
    table = toy_table({(0, 1): 1}, nvars=5, full_degree=1)
    with pytest.raises(InconclusiveError, match="variable count"):
        regularity(table)


def test_regularity_rejects_missing_guard_strand():
    # I_3 = S_3, and the window stops at strand t_max = 2
    table = toy_table({(0, 2): 1}, full_degree=3)
    with pytest.raises(InconclusiveError, match="strand 3"):
        regularity(table)


def test_regularity_accepts_guarded_strand():
    table = toy_table({(0, 1): 1, (1, 2): 1}, full_degree=1)
    assert regularity(table) == 1
    assert projective_dimension(table) == 1


def test_regularity_needs_a_degree_where_the_ideal_is_everything():
    # I = (x0^2, x1^5): strands 1-3 vanish, yet reg I = 6, since S/I lives
    # up to degree 5 and I_6 = S_6
    ring = PolyRing(2, "x")
    module = GradedModule.from_ideal(GradedIdeal(ring, [ring.variable(0) ** 2, ring.variable(1) ** 5]))
    short = tor_betti(module, 2, 5, "exact", t_max=3)
    assert short.nonzero() == {(0, 2): 1} and short.full_degree is None
    with pytest.raises(InconclusiveError):
        regularity(short)
    table = tor_betti(module, 2, 9, "exact", t_max=7)
    assert table.nonzero() == {(0, 2): 1, (0, 5): 1, (1, 7): 1} and table.full_degree == 6
    assert regularity(table) == 6
    assert "full_degree" not in json.dumps(table.to_json())


def test_projective_dimension_checks_its_own_window():
    assert projective_dimension(toy_table({(0, 1): 1, (1, 2): 1})) == 1
    with pytest.raises(InconclusiveError):
        projective_dimension(toy_table({(0, 1): 1}, unknown=[(2, 4)]))
    with pytest.raises(InconclusiveError):
        projective_dimension(toy_table({(0, 1): 1}, nvars=5))


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
    # x0 has weight -1: the labelling is right, the degree is not
    ring = PolyRing(2, "x")
    x0 = ring.variable(0)
    with pytest.raises(ConventionError, match="not homogeneous of degree 2"):
        ExplicitComplex(ring, [(0,), (2,)], [{(0, 0): x0}], [(0,), (-1,)])


def test_explicit_complex_rejects_nonzero_square():
    ring = PolyRing(2, "x")
    x0, x1 = ring.variable(0), ring.variable(1)
    with pytest.raises(ConventionError, match="composed with"):
        ExplicitComplex(ring, [(0,), (1,), (2,)], [{(0, 0): x0}, {(0, 0): x1}], [(0,), (-1,), (0,)])
    # the honest Koszul square passes
    ExplicitComplex(
        ring, [(0,), (1, 1), (2,)], [{(0, 0): x0, (0, 1): x1}, {(0, 0): -x1, (1, 0): x0}], [(0,), (-1, 1), (0,)],
    )


def global_piece(C, p, t):
    """d_{p+1} in degree t with global indices and full label lists, rows
    and columns the (generator, monomial) pairs in generator-major order:
    the reference for ``ExplicitComplex.piece_blocks``."""
    ring = C.ring

    def side(q):
        pairs = [(g, m) for g, deg in enumerate(C.gen_degrees[q]) for m in ring.monomials(t - deg)]
        labels = [C.gen_weights[q][g] + ring.monomial_weight(m) for g, m in pairs]
        return {pair: n for n, pair in enumerate(pairs)}, labels

    rows, row_labels = side(p)
    cols, col_labels = side(p + 1)
    entries = {}
    for (r, c), poly in C.diffs[p].items():
        for m in ring.monomials(t - C.gen_degrees[p + 1][c]):
            for pe, pc in poly.terms.items():
                entries[(rows[(r, tuple(x + y for x, y in zip(m, pe)))], cols[(c, m)])] = pc
    return entries, row_labels, col_labels


def explicit_complexes():
    return [
        pytest.param(lambda: koszul_complex(PolyRing(3, "x")), 5, id="koszul-3"),
        pytest.param(lambda: koszul_complex(PolyRing(4, "z")), 6, id="koszul-4"),
        pytest.param(lambda: power_resolution(2, 2, seed=7).complex, 6, id="cone-2-2"),
        pytest.param(lambda: power_resolution(2, 3, seed=7).complex, 9, id="cone-2-3"),
    ]


@pytest.mark.parametrize("build,t_max", explicit_complexes())
def test_piece_blocks_equal_split_of_global_piece(build, t_max):
    C = build()
    for p in range(len(C.gen_degrees) - 1):  # the complex's length
        for t in range(t_max + 1):
            blocks = C.piece_blocks(p, t)
            entries, rl, cl = global_piece(C, p, t)
            assert blocks.shape == (len(rl), len(cl)) == (C.term_dimension(p, t), C.term_dimension(p + 1, t))
            want = split_blocks(entries, rl, cl)
            assert blocks == want, (p, t)
            assert len(blocks) == len(entries)
            for w, (_r, _c, sub) in want.items():
                got = blocks.blocks[w][2]
                assert all(type(got[key]) is type(v) for key, v in sub.items()), (p, t, w)


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


def test_warm_betti_run_leaves_no_reference_cycle():
    # every object a run makes is freed by reference counting, none is left
    # for the cycle collector
    power_locus_betti(2, 2)
    gc.collect()
    gc.disable()
    try:
        power_locus_betti(2, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()
