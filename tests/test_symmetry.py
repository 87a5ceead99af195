"""Weyl halving: ranking only the weight >= 0 half of SL2-equivariant maps.

The halved ranks rest on rank_w = rank_{-w}, so every acceptance-range case
is run both ways and compared, and the block ranks of every Koszul slab and
every graded-piece spanning matrix are checked in pairs.  The unhalved runs
flip the mark on the module or ideal object (or rank the slices with
``weyl=False``, which reads their negative blocks); no library switch
exists.  The ranks of the blocks above an injective or a surjective
one are inferred, not computed; that rests on kernels and cokernels being
SL2-representations, so the same slabs and slices are checked to carry
injectivity and surjectivity upward, and the spanning matrices, whose
kernels need not be representations, surjectivity.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from bfsyz import fhmaps, homres, polyring
from bfsyz.errors import ConventionError, EquivarianceError, ResourceLimitError
from bfsyz.exactalg import WeightBlocks, blocked_rank_details, matrix
from bfsyz.exactalg.matrix import bareiss_rank_rows, draw_primes, mod_p_rank_sparse
from bfsyz.homres import (
    GradedModule,
    exactness_check,
    initial_ideal_regularity,
    koszul_complex,
    koszul_slab,
    power_ideal_betti,
    power_locus_betti,
    power_resolution,
    resolution_check,
    verify_ia3_resolution,
)
from bfsyz.polyring import (
    GradedIdeal,
    PolyRing,
    hilbert_function,
    hilbert_function_details,
    ideal_power,
)
from bfsyz.sl2rep import plethysm_block, plethysm_index, wedge_basis, wedge_index

from blockref import slice_matrix, split_blocks

LOCUS_CASES = [(2, 2), (3, 2), (2, 3)]
IDEAL_CASES = sorted(
    {(a, b, p) for a in (1, 2, 3) for b in (1, 2, 3) for p in (1, b - 1) if p >= 1}
)


@pytest.fixture
def unmarked_power_ideal(monkeypatch):
    """homres builds its power ideals unmarked, so their modules rank in full."""
    def unmarked(a, b):
        ideal = fhmaps.power_ideal(a, b)
        ideal.sl2_stable = False
        return ideal

    monkeypatch.setattr(homres, "power_ideal", unmarked)


@pytest.fixture
def unflagged_power_quotient(monkeypatch):
    original = GradedModule.power_quotient

    def unflagged(*args, **kw):
        module = original(*args, **kw)
        module.weyl = False
        return module

    monkeypatch.setattr(GradedModule, "power_quotient", unflagged)


def unhalve_slices(monkeypatch):
    """fhmaps ranks the full slices, every block of them."""
    monkeypatch.setattr(
        fhmaps, "blocked_rank_details",
        lambda *args, **kw: blocked_rank_details(*args, **{**kw, "weyl": False}),
    )


@pytest.fixture
def unhalved_slices(monkeypatch):
    unhalve_slices(monkeypatch)


def entry_values(table):
    return {key: (e.value, e.mode, e.primes) for key, e in table.entries.items()}


def entry_primes(table):
    return {key: (e.value, e.primes) for key, e in table.entries.items()}


def exact_keys(table):
    return {key for key, e in table.entries.items() if e.mode == "exact"}


# ---------------------------------------------------------------------------
# halved and full runs agree


@pytest.fixture(scope="module")
def halved_locus():
    return {ab: power_locus_betti(*ab, seed=3) for ab in LOCUS_CASES}


@pytest.mark.parametrize("a,b", LOCUS_CASES)
def test_power_locus_halved_equals_full(a, b, halved_locus, unflagged_power_quotient):
    halved = halved_locus[(a, b)]
    full = power_locus_betti(a, b, seed=3)
    assert halved.module.weyl and not full.module.weyl
    assert halved.quotient_table.meta["symmetry"] == "sl2-weyl"
    assert halved.ideal_table.meta["symmetry"] == "sl2-weyl"
    assert "symmetry" not in full.quotient_table.meta
    # values and primes agree; the full run, which never leans on a modular
    # incoming rank, certifies at least what the halved run does
    assert entry_primes(halved.quotient_table) == entry_primes(full.quotient_table)
    assert exact_keys(halved.quotient_table) <= exact_keys(full.quotient_table)
    assert halved.quotient_table.unknown == full.quotient_table.unknown == set()


@pytest.fixture(scope="module")
def halved_ideal_tables():
    return {abp: power_ideal_betti(*abp, seed=4) for abp in IDEAL_CASES}


@pytest.mark.parametrize("a,b,power", IDEAL_CASES)
def test_power_ideal_halved_equals_full(a, b, power, halved_ideal_tables, unmarked_power_ideal):
    halved = halved_ideal_tables[(a, b, power)]
    full = power_ideal_betti(a, b, power, seed=4)
    assert halved.meta["symmetry"] == "sl2-weyl"
    assert "symmetry" not in full.meta
    assert entry_values(halved) == entry_values(full)


def test_ia3_resolution_halved_equals_full(monkeypatch):
    halved = verify_ia3_resolution(2, seed=2)
    ideal = fhmaps.power_ideal(2, 3)
    ideal.sl2_stable = False
    monkeypatch.setattr(homres, "power_ideal", lambda a, b: ideal)
    assert verify_ia3_resolution(2, seed=2) == halved
    assert halved["ok"]


def criterion_1_slices():
    return [(a, b, k) for a in (1, 2, 3) for b in (1, 2, 3) for k in range(b + 2)]


@pytest.fixture(scope="module")
def halved_slice_reports():
    return {
        (a, b, k, mode): fhmaps.fh_rank_report(a, b, k, mode, rng=random.Random(f"{a}:{b}:{k}"))
        for a, b, k in criterion_1_slices() for mode in ("exact", "modular")
    }


def test_slices_halved_equal_full(halved_slice_reports, unhalved_slices):
    full = fhmaps.foulkes_howe(2, 2, 2)
    assert any(full.col_weights[c] < 0 for _r, c in slice_matrix(full).entries)
    for (a, b, k, mode), halved in halved_slice_reports.items():
        full = fhmaps.fh_rank_report(a, b, k, mode, rng=random.Random(f"{a}:{b}:{k}"))
        assert halved == full, (a, b, k, mode)
        assert halved["symmetry"] == "sl2-weyl"
        assert halved["maximal_rank"] is True


def test_minors_check_halved_equals_full(monkeypatch):
    halved = fhmaps.minors_generate_check(2, 2, rng=random.Random(5))
    assert halved["symmetry"] == "sl2-weyl" and halved["equal"] is True
    unhalve_slices(monkeypatch)
    assert fhmaps.minors_generate_check(2, 2, rng=random.Random(5)) == halved


def piece_ideals():
    """(name, builder, top degree) of the marked ideals whose pieces are halved."""
    cases = [
        (f"power-{a}-{b}", lambda a=a, b=b: fhmaps.power_ideal(a, b), (b + 2) // 2 * (a - 1) + 1)
        for a in (1, 2, 3) for b in (1, 2, 3)
    ]
    cases.append(("power-4-5", lambda: fhmaps.power_ideal(4, 5), 10))
    cases.append(("power-2-2-squared", lambda: ideal_power(fhmaps.power_ideal(2, 2), 2), 7))
    cases.append(("ix-2-2", lambda: fhmaps.ix_kernel_ideal(2, 2), 7))
    return [pytest.param(build, k_max, id=name) for name, build, k_max in cases]


@pytest.mark.parametrize("mode", ["exact", "modular"])
@pytest.mark.parametrize("build,k_max", piece_ideals())
def test_piece_dimensions_halved_equal_full(build, k_max, mode):
    halved, full = build(), build()
    full.sl2_stable = False
    assert halved.sl2_stable and not full.sl2_stable
    got = hilbert_function_details(halved, k_max, mode, rng=random.Random(f"{k_max}:{mode}"))
    want = hilbert_function_details(full, k_max, mode, rng=random.Random(f"{k_max}:{mode}"))
    # values, modes, primes and escalation flags all agree
    assert got == want
    ranked = [pv.rank for pv in got if pv.rank.rank]
    assert ranked and {r.mode for r in ranked} == {mode}
    if mode == "modular":
        assert all(len(r.primes) >= 2 for r in ranked)


def test_initial_ideal_regularity_report_is_flagged(monkeypatch):
    values = {
        "a": 2, "b": 3, "top_degree": 2, "hf_initial": [1, 4, 3, 0],
        "hf_power": [1, 4, 3, 0], "hf_power_provenance": [{"mode": "exact"}] * 4,
        "hf_agree": True, "value": 3,
    }
    assert initial_ideal_regularity(2, 3) == {**values, "symmetry": "sl2-weyl"}
    ideal = fhmaps.power_ideal(2, 3)
    ideal.sl2_stable = False
    monkeypatch.setattr(homres, "power_ideal", lambda a, b: ideal)
    assert initial_ideal_regularity(2, 3) == values


def test_resolution_certificate_halved_equals_full():
    res = power_resolution(2, 2, seed=7)
    assert res.ideal.sl2_stable and res.certificate["symmetry"] == "sl2-weyl"
    full = fhmaps.power_ideal(2, 2)
    full.sl2_stable = False
    window = tuple(res.certificate["window"])
    unflagged = resolution_check(res.complex, full, window, seed=7)
    assert unflagged == {k: v for k, v in res.certificate.items() if k != "symmetry"}
    assert unflagged["resolves"]


def test_wrongly_marked_ideal_is_refused():
    ring = PolyRing(3, "c")
    c0 = ring.variable(0)
    ideal = GradedIdeal(ring, [c0 * c0], sl2_stable=True)
    assert ideal.sl2_stable
    with pytest.raises(EquivarianceError):
        ideal.piece_dimension_details(2)
    with pytest.raises(EquivarianceError):
        hilbert_function(ideal, 3, "modular", rng=random.Random(1))
    ideal.sl2_stable = False
    assert hilbert_function(ideal, 3) == [1, 3, 5, 7]


# ---------------------------------------------------------------------------
# rank_w == rank_{-w} on every slab and spanning matrix, and each map's
# blocks are its global entries split


def block_ranks(blocks: WeightBlocks, primes=None) -> dict:
    """Every block's rank: exact, or modulo each of ``primes`` (which must agree)."""
    ranks = {}
    for w, (nrows, ncols, sub) in blocks.items():
        if primes:
            ranks[w] = mod_p_rank_sparse(sub, nrows, ncols, primes) if sub else 0
            continue
        rows: list[dict] = [{} for _ in range(nrows)]
        for (r, c), v in sub.items():
            rows[r][c] = v
        ranks[w] = bareiss_rank_rows(rows, ncols)
    return ranks


def assert_weyl_ranks(blocks: WeightBlocks, ranks: dict, where, kernel: bool = True) -> None:
    """rank_w = rank_{-w}, and above weight 0 the cokernel dimensions, and
    with ``kernel`` the kernel dimensions, never grow from w - 2 to w (a
    missing label has a 0 x 0 block), as weight multiplicities of
    SL2-representations never do.  So every block above a surjective
    (injective) one of its parity is surjective (injective), which is what
    blocked_rank_details infers."""
    def defects(w):
        nrows, ncols, _sub = blocks.blocks.get(w, (0, 0, None))
        return ncols - ranks.get(w, 0), nrows - ranks.get(w, 0)

    for w, r in ranks.items():
        assert ranks.get(-w, 0) == r, (where, w)
        if w >= 2:
            (ker, coker), (ker_below, coker_below) = defects(w), defects(w - 2)
            assert coker <= coker_below and (ker <= ker_below or not kernel), (where, w)


@pytest.mark.parametrize("build,k_max", piece_ideals())
def test_spanning_block_ranks_are_weyl_symmetric(build, k_max):
    ideal = build()
    for k in range(k_max + 1):
        full = ideal.spanning_data(k)
        entries, rl, cl = global_spanning(ideal, k)
        assert full.shape == (len(rl), len(cl))
        # every block is built, the negative ones too
        assert full == split_blocks(entries, rl, cl)
        assert_weyl_ranks(full, block_ranks(full), k, kernel=False)


def global_spanning(ideal, k):
    """The degree-k spanning matrix with global indices and full label lists,
    one column m * g at a time: the reference for the weight blocks."""
    ring = ideal.ring

    def labels(t):
        return [ring.monomial_weight(m) for m in ring.monomials(t)]

    index = plethysm_index(k, ring.nvars - 1)
    entries, col_labels = {}, []
    for g in ideal.generators:
        dg = g.homogeneous_degree
        if dg > k:
            continue
        gw = g.weight()
        for m, mw in zip(ring.monomials(k - dg), labels(k - dg)):
            col_labels.append(gw + mw)
            for exp, coeff in g.terms.items():
                entries[(index[tuple(x + y for x, y in zip(m, exp))], len(col_labels) - 1)] = coeff
    return entries, labels(k), col_labels


def fraction_ideal():
    ring = PolyRing(3, "x")
    x0, x1, x2 = (ring.variable(v) for v in range(3))
    # x0 * x2 and x1^2 both have weight 0
    return GradedIdeal(ring, [x0 * x2 - (x1 * x1).scale(Fraction(1, 3)), (x0 * x1).scale(Fraction(4, 2))])


@pytest.mark.parametrize("build,k_max", piece_ideals() + [pytest.param(fraction_ideal, 4, id="weighted-fractions")])
def test_spanning_blocks_equal_split_of_global_entries(build, k_max):
    ideal = build()
    for k in range(k_max + 1):
        blocks = ideal.spanning_data(k)
        entries, rl, cl = global_spanning(ideal, k)
        assert blocks.shape == (len(rl), len(cl))
        want = split_blocks(entries, rl, cl)
        assert blocks == want, k
        assert len(blocks) == len(entries)
        for w, (_r, _c, sub) in want.items():
            got = blocks.blocks[w][2]
            assert all(type(got[key]) is type(v) for key, v in sub.items()), (k, w)


def slab_cases():
    cases = [
        pytest.param(lambda a=a, b=b: GradedModule.power_quotient(a, b), b + 1, id=f"quotient-{a}-{b}")
        for a, b in LOCUS_CASES
    ]
    for a, b, power in IDEAL_CASES:
        def build(a=a, b=b, power=power):
            ideal = fhmaps.power_ideal(a, b)
            return GradedModule.from_ideal(ideal_power(ideal, power) if power > 1 else ideal)

        cases.append(pytest.param(build, a * b, id=f"ideal-{a}-{b}-power-{power}"))
    # verify_ia3_resolution(2) reads strands up to 2a = 4
    cases.append(pytest.param(lambda: GradedModule.from_ideal(fhmaps.power_ideal(2, 3)), 4, id="ia3-2"))
    return cases


@pytest.mark.parametrize("build,t_max", slab_cases())
def test_block_ranks_are_weyl_symmetric(build, t_max):
    module = build()
    assert module.weyl
    for i in range(1, module.ring.nvars + 1):
        for t in range(t_max + 1):
            nrows, ncols, full = koszul_slab(module, i, t)
            entries, rl, cl = global_slab(module, i, t)
            assert (nrows, ncols) == (len(rl), len(cl))
            assert full.shape == (nrows, ncols)
            if not entries:
                assert not full
                continue
            # every block is built, the negative ones too
            assert full == split_blocks(entries, rl, cl)
            assert_weyl_ranks(full, block_ranks(full), (i, t))


BENCH_SLICES = [(3, 4, 4), (2, 6, 4), (3, 4, 5)]


@pytest.fixture(scope="module")
def slices():
    return {abk: fhmaps.foulkes_howe(*abk) for abk in criterion_1_slices() + BENCH_SLICES}


@pytest.mark.parametrize("mode", ["exact", "modular"])
def test_slice_block_ranks_carry_over(slices, mode):
    primes = draw_primes(random.Random(11)) if mode == "modular" else None
    for abk, fh in slices.items():
        blocks = split_blocks(slice_matrix(fh).entries, fh.row_weights, fh.col_weights)
        # every block is built from the product tree, the negative ones too
        assert fh == blocks, abk
        ranks = block_ranks(blocks, primes)
        assert_weyl_ranks(blocks, ranks, abk)
        # blocked_rank_details, ranking upward and inferring, gets the full sum
        halved = blocked_rank_details(fh, mode, primes=primes, weyl=True)
        assert halved.rank == sum(ranks.values()), abk
        assert halved.mode == mode and list(halved.primes) == (primes or []), abk


def test_slice_blocks_are_weyl_reversals(slices):
    # reversing the c_i sends P_j to P_{d-j}, so alpha_k has entry
    # (e, beta) = entry (rev e, rev beta): the block at -w is the block at w
    # with every row and column monomial reversed.  The halved rank rests on
    # this; the blocks are built independently, from the product tree
    for (a, b, k), fh in slices.items():
        top = a * b * k
        for w in fh.shapes():
            if w < 0:
                continue
            s = (w + top) // 2
            rows, cols = plethysm_block(a * k, b, s), plethysm_block(k, a * b, s)
            row_pos = {m: n for n, m in enumerate(plethysm_block(a * k, b, top - s))}
            col_pos = {m: n for n, m in enumerate(plethysm_block(k, a * b, top - s))}
            reversed_block = {
                (row_pos[rows[i][::-1]], col_pos[cols[j][::-1]]): v
                for (i, j), v in fh.entries(w).items()
            }
            assert fh.entries(-w) == reversed_block, (a, b, k, w)


def global_slab(module, i, t):
    """d(i, t) with global indices and full label lists, built entry by entry
    from the contraction formula: the reference for the weight blocks."""
    nv = module.ring.nvars
    dim_t = module.dimension(t) if t >= 0 else 0
    dim_t1 = module.dimension(t + 1)
    wsrc = wedge_basis(i, nv - 1)
    widx = wedge_index(i - 1, nv - 1)
    varw = [module.ring.monomial_weight(tuple(int(u == v) for u in range(nv))) for v in range(nv)]
    col_labels = [sum(varw[v] for v in T) + w for T in wsrc for w in module.basis_weights(t)]
    row_labels = [sum(varw[v] for v in T) + w for T in wedge_basis(i - 1, nv - 1) for w in module.basis_weights(t + 1)]
    entries = {}
    if dim_t and dim_t1:
        adj = module.mult_adjacency(t)
        for wi, T in enumerate(wsrc):
            for pos, v in enumerate(T):
                base_r = widx[T[:pos] + T[pos + 1 :]] * dim_t1
                for c in range(dim_t):
                    col = wi * dim_t + c
                    for r, coeff in adj[v][c]:
                        entries[(base_r + r, col)] = -coeff if pos % 2 else coeff
    return entries, row_labels, col_labels


def fraction_module():
    # Fraction coefficients, so the blocks must hold them normalized
    return GradedModule.from_ideal(fraction_ideal())


@pytest.mark.parametrize(
    "build,t_max", slab_cases() + [pytest.param(fraction_module, 3, id="weighted-fractions")]
)
def test_slab_blocks_equal_split_of_global_slab(build, t_max):
    module = build()
    for i in range(1, module.ring.nvars + 1):
        for t in range(t_max + 1):
            nrows, ncols, blocks = koszul_slab(module, i, t)
            entries, rl, cl = global_slab(module, i, t)
            assert (nrows, ncols) == (len(rl), len(cl))
            if not entries:
                assert not blocks and len(blocks) == 0
            assert len(blocks) == len(entries)
            # an empty slab too has the weight spaces of its nonzero side as blocks
            want = split_blocks(entries, rl, cl)
            assert blocks == want, (i, t)
            for w, (_r, _c, sub) in want.items():
                got = blocks.blocks[w][2]
                assert all(type(got[key]) is type(v) for key, v in sub.items()), (i, t, w)


# ---------------------------------------------------------------------------
# the guard, and the paths that stay fully blocked


def test_weyl_rejects_asymmetric_labels():
    with pytest.raises(EquivarianceError):
        blocked_rank_details(split_blocks({(0, 0): 1, (1, 1): 1}, [1, 1], [1, 1]), weyl=True)
    with pytest.raises(EquivarianceError):
        blocked_rank_details(split_blocks({(0, 0): 1}, [1, -1], [1, 1]), weyl=True)
    # the guard reads block shapes: a half with its negative block dropped is refused
    with pytest.raises(EquivarianceError):
        blocked_rank_details(WeightBlocks({0: (1, 1, {(0, 0): 1}), 1: (1, 1, {})}), weyl=True)
    # the same map ranks in full without the flag
    assert blocked_rank_details(split_blocks({(0, 0): 1, (1, 1): 1}, [1, 1], [1, 1])).rank == 2


def test_weyl_rejects_growing_weight_multiplicities():
    # symmetric labels, but weight 2 has more rows and columns than weight 0
    labels = [-2, -2, 0, 2, 2]
    blocks = split_blocks({(i, i): 1 for i in range(5)}, labels, labels)
    with pytest.raises(EquivarianceError, match="row block sizes grow"):
        blocked_rank_details(blocks, weyl=True)
    # a missing label has size 0: weight 2 between 0 and 4, and weight 0 below 2
    with pytest.raises(EquivarianceError):
        blocked_rank_details(split_blocks({(i, i): 1 for i in range(3)}, [-4, 0, 4], [-4, 0, 4]), weyl=True)
    with pytest.raises(EquivarianceError):
        blocked_rank_details(split_blocks({(0, 0): 1, (1, 1): 1}, [-2, 2], [-2, 2]), weyl=True)
    # the columns are checked on their own
    cols_grow = WeightBlocks({-2: (1, 2, {}), 0: (1, 1, {(0, 0): 1}), 2: (1, 2, {(0, 1): 1})})
    with pytest.raises(EquivarianceError, match="column block sizes grow"):
        blocked_rank_details(cols_grow, weyl=True)
    # without the flag nothing is assumed
    assert blocked_rank_details(blocks).rank == 5
    # formal columns (a spanning matrix) may grow; the rows still may not
    assert blocked_rank_details(cols_grow, weyl=True, sl2_columns=False).rank == 3
    with pytest.raises(EquivarianceError, match="row block sizes grow"):
        blocked_rank_details(blocks, weyl=True, sl2_columns=False)


def test_weyl_walks_upward_whatever_the_label_order():
    # V_2 + V_0 -> V_2, the projection away from V_0, handed over from the
    # top label down: upward, weight 0 is surjective, so weight 2 is, and the
    # rank is 1 + 2 * 1 = 3; a walk downward would find weight 2 injective and
    # count weight 0 as injective too, 2 + 2 * 1 = 4
    blocks = WeightBlocks({
        2: (1, 1, {(0, 0): 1}),
        0: (1, 2, {(0, 0): 1}),
        -2: (1, 1, {(0, 0): 1}),
    })
    assert blocked_rank_details(blocks, weyl=True) == (3, "exact", (), False)
    assert blocked_rank_details(blocks, "modular", rng=random.Random(1), weyl=True).rank == 3


def test_weyl_infers_within_one_parity():
    # V_0 + V_1 -> V_0 + V_1, the identity on V_0 and zero on V_1: weight 0
    # is injective, which says nothing about weight 1
    blocks = WeightBlocks({-1: (1, 1, {}), 0: (1, 1, {(0, 0): 1}), 1: (1, 1, {})})
    assert blocked_rank_details(blocks, weyl=True).rank == 1
    assert blocked_rank_details(blocks, "modular", rng=random.Random(1), weyl=True).rank == 1


def redundant_stable_ideals():
    """(ideal, k, dim I_k) for SL2-stable ideals whose generators are redundant."""
    ring = PolyRing(3, "c")
    c = [ring.variable(v) for v in range(3)]
    squares = [c[i] * c[j] for i in range(3) for j in range(i, 3)]
    # weight 0 of the degree-2 spanning matrix is injective, weight 2 is not
    yield GradedIdeal(ring, squares + [2 * c[0] * c[1], 2 * c[1] * c[2]], sl2_stable=True), 2, 6
    ring = PolyRing(2)
    x, y = ring.variable(0), ring.variable(1)
    # the products m * g have 2, 1 and 2 columns in weights -2, 0 and 2
    yield GradedIdeal(ring, [x * x, 2 * x * x, x * y, y * y, 2 * y * y], sl2_stable=True), 2, 3


@pytest.mark.parametrize("mode", ["exact", "modular"])
def test_redundant_generators_infer_only_surjectivity(mode):
    # the image of a spanning matrix is a representation, its kernel need
    # not be: an injective weight-0 block says nothing about weight 2
    for ideal, k, dim in redundant_stable_ideals():
        assert ideal.sl2_stable
        got = ideal.piece_dimension_details(k, mode, rng=random.Random(5))
        assert got.rank == dim and got.mode == mode
        ideal.sl2_stable = False
        assert ideal.piece_dimension_details(k, mode, rng=random.Random(5)) == got


def spy_on_eliminations(monkeypatch) -> list:
    """Record every mod-p kernel and Bareiss call, the two block eliminations."""
    calls = []
    for owner, name in ((matrix._kernel, "rank_mod_p_dense"), (matrix, "bareiss_rank_rows")):
        def spy(*args, _original=getattr(owner, name), _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, spy)
    return calls


def spy_on_built_blocks(monkeypatch, owner, name, pick) -> tuple[list, set]:
    """Record every map that ``owner.name`` makes (``pick`` takes it from the
    result), and every (map, label) that ``blocked_rank_details`` reads."""
    maps, reads, ranking = [], set(), []
    make, entries = getattr(owner, name), WeightBlocks.entries

    def maker(*args, **kw):
        out = make(*args, **kw)
        maps.append(pick(out))
        return out

    def read(self, w):
        if ranking:
            reads.add((id(self), w))
        return entries(self, w)

    for module in (homres, polyring):
        def rank(*args, _rank=module.blocked_rank_details, **kw):
            ranking.append(True)
            try:
                return _rank(*args, **kw)
            finally:
                ranking.pop()

        monkeypatch.setattr(module, "blocked_rank_details", rank)
    monkeypatch.setattr(owner, name, maker)
    monkeypatch.setattr(WeightBlocks, "entries", read)
    return maps, reads


def assert_only_eliminated_blocks_built(maps, reads) -> None:
    """Each map built only blocks of weight >= 0 that its rank read,
    so none that the walk inferred; and the walk did infer some."""
    assert maps
    inferred = 0
    for blocks in maps:
        built = set(blocks._built)
        assert built <= {w for i, w in reads if i == id(blocks)}
        assert all(w >= 0 for w in built)
        inferred += sum(1 for w, (r, c) in blocks.shapes().items() if w >= 0 and r and c and w not in built)
    assert inferred


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda: power_locus_betti(2, 3, seed=1), id="locus-2-3"),
        pytest.param(lambda: power_ideal_betti(2, 3, 1, seed=1), id="ideal-2-3-1"),
    ],
)
def test_weyl_betti_runs_build_only_the_eliminated_slab_blocks(monkeypatch, run):
    maps, reads = spy_on_built_blocks(monkeypatch, homres, "koszul_slab", lambda out: out[2])
    run()
    assert_only_eliminated_blocks_built(maps, reads)


def test_weyl_piece_dimensions_build_only_the_eliminated_spanning_blocks(monkeypatch):
    ideal, full = fhmaps.power_ideal(3, 3), fhmaps.power_ideal(3, 3)
    full.sl2_stable = False
    assert ideal.sl2_stable and not full.sl2_stable
    want = [full.piece_dimension_details(k).rank for k in range(7)]
    maps, reads = spy_on_built_blocks(monkeypatch, GradedIdeal, "spanning_data", lambda out: out)
    assert [ideal.piece_dimension_details(k).rank for k in range(7)] == want
    assert_only_eliminated_blocks_built(maps, reads)


def test_slice_is_settled_by_one_block(monkeypatch):
    # every column weight of (3,4,5) is even; the weight-0 block is of full
    # rank, so no other block is eliminated
    calls = spy_on_eliminations(monkeypatch)
    report = fhmaps.fh_rank_report(3, 4, 5, rng=random.Random(2))
    assert report["maximal_rank"] is True and report["status"] == "ok"
    assert len(calls) == 1


@pytest.mark.parametrize("mode", ["exact", "modular"])
def test_inferred_blocks_skip_the_budget_check(monkeypatch, mode):
    # weight 0 is 4 x 3 and injective; weight 2 (3 x 2) is inferred to be
    # injective, rank 2.  When rows and columns are representations, a block
    # above a ranked one is never larger (multiplicities do not grow), so
    # the maps that the budget refuses are those whose ranked blocks exceed
    # it; spanning matrices are the exception (see the test below)
    eye = {(i, i): 1 for i in range(3)}
    blocks = WeightBlocks({
        -2: (3, 2, {}), 0: (4, 3, eye), 2: (3, 2, {(0, 0): 1, (1, 1): 1}),
    })
    checked = []
    budget = matrix.check_dense_budget
    monkeypatch.setattr(
        matrix, "check_dense_budget", lambda *args: checked.append(args[:2]) or budget(*args)
    )
    calls = spy_on_eliminations(monkeypatch)
    res = blocked_rank_details(blocks, mode, rng=random.Random(3), mem_mb=1, weyl=True)
    assert res.rank == 3 + 2 * 2 and res.mode == mode
    assert checked == [(4, 3)] and len(calls) == 1


@pytest.mark.parametrize("mode", ["exact", "modular"])
def test_spanning_blocks_above_a_surjective_one_skip_the_budget(mode):
    # formal columns may grow with the weight: weight 2 has 1 x 100000 cells,
    # over 1 MiB, but weight 0 is surjective, so weight 2 is too (rank 1)
    wide = 100_000
    blocks = WeightBlocks({
        -2: (1, wide, {}), 0: (1, 1, {(0, 0): 1}), 2: (1, wide, {(0, 7): 1}),
    })
    res = blocked_rank_details(
        blocks, mode, rng=random.Random(3), mem_mb=1, weyl=True, sl2_columns=False,
    )
    assert res.rank == 3 and res.mode == mode
    # ranked in full it is refused, as before
    with pytest.raises(ResourceLimitError):
        blocked_rank_details(blocks, mode, rng=random.Random(3), mem_mb=1)


def test_weyl_counts_positive_blocks_twice():
    # blocks -1, 0, 1 of ranks 1, 1, 1; the -1 block is never looked at
    entries = {(0, 0): 1, (1, 1): 2, (2, 2): 3}
    labels = [-1, 0, 1]
    assert blocked_rank_details(split_blocks(entries, labels, labels), weyl=True).rank == 3
    half = split_blocks({(1, 1): 2, (2, 2): 3}, labels, labels)
    assert blocked_rank_details(half, weyl=True).rank == 3


def test_weyl_still_checks_negative_weight_entries():
    # entries of negative weight are checked when split, then never ranked
    labels = [-1, 0, 1]
    with pytest.raises(ConventionError):
        split_blocks({(0, 1): 1, (1, 1): 1}, labels, labels)
    with pytest.raises(ValueError):
        split_blocks({(0, 3): 1, (1, 1): 1}, labels, labels)
    blocks = split_blocks({(0, 0): 5, (2, 2): Fraction(4, 2)}, labels, labels)
    assert blocks.blocks == {-1: (1, 1, {(0, 0): 5}), 0: (1, 1, {}), 1: (1, 1, {(0, 0): 2})}
    assert type(blocks.blocks[1][2][(0, 0)]) is int
    assert blocked_rank_details(blocks, weyl=True).rank == 2


def test_unflagged_reports_are_unchanged():
    rep = dict(exactness_check(koszul_complex(PolyRing(3, "c")), (0, 4), "modular", seed=5))
    rep["homology"] = sorted([p, t, h] for (p, t), h in rep["homology"].items())
    canon = json.dumps(rep, sort_keys=True, separators=(",", ":"))
    assert "symmetry" not in canon
    assert hashlib.sha256(canon.encode()).hexdigest() == (
        "2f7a499c05d775408588892c3ba62296daec7690baed08f6aa5678b3dce351ea"
    )
