"""The symmetry-split exact determinant against plain elimination.

`vandermonde` computes det [f_i(a_j)] of a validated basis and node set.
The S_n-invariant block decides some singular pairs first
(test_invariant_block.py); the split into integer symmetry blocks gives
every other value.  The second derivation is plain Gaussian elimination
over the rationals (`oracles.fraction_determinant`) on the matrix
`vandermonde_matrix` returns for the sets' sorted functions and points,
itself checked entry by entry against `oracles.evaluate`, and at N = 126
elimination modulo 2^61 - 1.  They must agree exactly, sign included.
"""
import itertools
import random
from fractions import Fraction

import pytest

from symlag import (
    BasisFunction,
    Permutation,
    Point,
    enumerate_types,
    validate_symmetric,
    validate_symmetric_basis,
    vandermonde,
    vandermonde_matrix,
)
from symlag import _linalg, interp
from symlag.symcore import adjacent_transpositions, swap_images
from symlag.interp import VERDICT_SINGULAR

from oracles import (
    determinant_mod_p,
    evaluate,
    expand_orbit,
    fraction_determinant,
    residue,
    vandermonde_mod_p,
)
from conftest import (
    TOTAL_DEGREE,
    case3_set,
    forced_node_set,
    quadratic_basis,
    rand_fraction,
    random_symmetric_set,
    total_degree_exponents,
)

def rational_basis(n, d):
    """(3/2 + e1/3) x^e over the total-degree-d exponents: rational
    coefficients, several terms, still closed under S_n."""
    return [
        BasisFunction.from_terms(
            [(e, Fraction(3, 2))]
            + [(tuple(x + (i == j) for j, x in enumerate(e)), Fraction(1, 3)) for i in range(n)]
        )
        for e in total_degree_exponents(n, d)
    ]


def split(basis, nodes):
    """The split determinant alone, on the points as vandermonde clears them,
    given the invariant block's determinant, 0 when orbit counts differ."""
    cleared, degree = interp._cleared_points(basis.functions, [p.coords for p in nodes.points])
    invariant = 0
    if len(basis.orbits) == len(nodes.orbits):
        invariant, _ = interp._invariant_certificate(basis, nodes, cleared, degree)
    return interp._split_determinant(basis, nodes, cleared, degree, invariant)


def both(functions, points):
    """The split determinant of the validated sets, and plain elimination on
    their evaluation matrix."""
    basis, nodes = validate_symmetric_basis(functions), validate_symmetric(points)
    split = vandermonde(basis, nodes).determinant
    matrix = vandermonde_matrix(basis.functions, nodes.points)
    assert matrix == [[evaluate(f, p) for p in nodes.points] for f in basis.functions]
    return split, fraction_determinant(matrix)


def shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("make_basis", [
    lambda n, d: [BasisFunction.monomial(e) for e in total_degree_exponents(n, d)],
    rational_basis,
], ids=["monomial", "rational"])
def test_split_matches_plain_on_shuffled_symmetric_sets(n, make_basis):
    rng = random.Random(7100 + n)
    functions = make_basis(n, TOTAL_DEGREE[n])
    nonzero = 0
    for _ in range(3):
        nodes = forced_node_set(rng, functions)
        split, plain = both(shuffled(rng, functions), shuffled(rng, nodes.points))
        assert split == plain
        nonzero += split != 0
    assert nonzero


def test_split_matches_plain_with_zero_and_negative_coordinates():
    rng = random.Random(71)
    functions = [BasisFunction.monomial(e) for e in total_degree_exponents(4, 3)]
    for _ in range(4):
        nodes = forced_node_set(rng, functions)
        # map coordinates onto a small range holding 0 and negatives; the
        # map commutes with permutations, so the image is still symmetric
        pts = [Point(tuple(Fraction(c.numerator % 7 - 3, c.denominator) for c in p.coords)) for p in nodes.points]
        split, plain = both(shuffled(rng, functions), shuffled(rng, pts))
        assert split == plain


def _pair_orbit_sets(rng, functions):
    """Up to 6 sets in R^4: the orbit of (a, a, b, b) and two diagonal points."""
    for _ in range(6):
        a, b, c, d = (rand_fraction(rng, -9, 9, 4) for _ in range(4))
        pts = list(expand_orbit(Point.of(a, a, b, b))) + [Point.of(c, c, c, c), Point.of(d, d, d, d)]
        if len(set(pts)) == 8:
            yield pts


def _forced_sets(rng, functions):
    for _ in range(3):
        yield forced_node_set(rng, functions).points


def test_split_matches_plain_on_orbits_with_non_coordinate_stabilizers():
    # x_S + x_{S^c}, x_S the product of the x_i over S, for the n/2-subsets S
    # holding 1: x1*x3 + x2*x4 is fixed by (1 2)(3 4) but by neither swap
    # alone, one free generator; x1*x3*x5 + x2*x4*x6 by (1 2)(3 4)(5 6), two
    for n, degree, seed, node_sets in [(4, 1, 72, _pair_orbit_sets), (6, 2, 1, _forced_sets)]:
        halves = [tuple(int(i in S) for i in range(n)) for S in itertools.combinations(range(n), n // 2) if 0 in S]
        functions = [BasisFunction.monomial(e) for e in total_degree_exponents(n, degree)] + [
            BasisFunction.from_terms([(e, Fraction(2, 3)), (tuple(1 - x for x in e), Fraction(2, 3))]) for e in halves
        ]
        # so the orbit of x1*x3*... + x2*x4*... lies in the blocks of exactly
        # the characters of even weight
        orbits, blocks = interp._orbits(validate_symmetric_basis(functions).swaps[::2], len(functions))
        even = [c for c in range(len(blocks)) if c.bit_count() % 2 == 0]
        assert any([c for c, block in enumerate(blocks) if o in dict(block)] == even for o in range(len(orbits)))
        rng = random.Random(seed)
        nonzero = 0
        for pts in node_sets(rng, functions):
            split, plain = both(shuffled(rng, functions), shuffled(rng, pts))
            assert split == plain
            nonzero += split != 0
        assert nonzero


def test_split_matches_elimination_mod_p_at_benchmark_size():
    # total degree (5, 4) in R^5, N = 126, the largest pair of the unisolve
    # workload; past the reach of plain elimination over the rationals, the
    # second derivation is elimination over Z/p, p = 2^61 - 1, on the matrix
    # with its rows and columns in the sets' sorted order
    functions = [BasisFunction.monomial(e) for e in total_degree_exponents(5, 4)]
    basis = validate_symmetric_basis(functions)
    nodes = forced_node_set(random.Random(7500), functions)
    det = split(basis, nodes)
    assert det != 0
    assert residue(det) == determinant_mod_p(vandermonde_mod_p(basis.functions, nodes.points))


def _count_eliminated_blocks(monkeypatch):
    """The (size, determinant) of each block the split eliminates, as it goes.

    Each goes through left_kernel, as does the certificate's pass on the
    c x c invariant block, which the spy leaves out: that pass comes first,
    and is the certificate's only one."""
    blocks, left_kernel, certificate = [], _linalg.left_kernel, interp._invariant_certificate

    def spy(m):
        det, y = left_kernel(m)
        blocks.append((len(m), det))
        return det, y

    def certify(basis, *args):
        assert blocks == []
        found = certificate(basis, *args)
        assert blocks.pop() == (len(basis.orbits), found[0]) and blocks == []
        return found

    monkeypatch.setattr(interp._linalg, "left_kernel", spy)
    monkeypatch.setattr(interp, "_invariant_certificate", certify)
    return blocks


def test_singular_by_a_non_square_block(monkeypatch):
    # x1, x2 form one free orbit of (1 2); both nodes are fixed by it, so the
    # sign character has a row and no column
    blocks = _count_eliminated_blocks(monkeypatch)
    basis = validate_symmetric_basis([BasisFunction.monomial((1, 0)), BasisFunction.monomial((0, 1))])
    nodes = validate_symmetric([Point.of(1, 1), Point.of(2, 2)])
    assert split(basis, nodes) == 0
    assert blocks == []
    assert fraction_determinant(vandermonde_matrix(basis.functions, nodes.points)) == 0
    # one basis orbit against two node orbits: vandermonde decides before the split
    report = vandermonde(basis, nodes)
    assert report.verdict == VERDICT_SINGULAR and report.determinant == 0


def test_singular_by_a_non_square_block_of_the_tau_layer(monkeypatch):
    # the S_4-orbits of x^(k,k,k,k), k < 3, of seven exponent patterns, and
    # of x1*x2 + x3*x4: 90 functions in 11 orbits; and 6 node orbits of type
    # (1,0,1,0), 3 of (0,2,0,0) and 2 of (4,0,0,0): 90 nodes in 11 orbits.
    # Each element of A fixes as many functions as nodes, so A's blocks are
    # square, and the invariant block is nonsingular; but a 4-cycle of
    # <A, tau> fixes 4 functions and no node, so a tau block is not square
    blocks = _count_eliminated_blocks(monkeypatch)
    layers, passes = [], []
    character_split, echelon = interp._character_split, _linalg._echelon
    monkeypatch.setattr(interp, "_character_split", lambda *args: layers.append(character_split(*args)) or layers[-1])
    monkeypatch.setattr(interp._linalg, "_echelon", lambda m: passes.append(len(m)) or echelon(m))
    functions = set()
    for e in [(0,) * 4, (1,) * 4, (2,) * 4, (0, 0, 1, 2), (0, 0, 1, 3), (0, 0, 2, 3), (1, 1, 0, 2), (1, 1, 0, 3),
              (2, 2, 0, 1), (3, 3, 0, 1)]:
        functions |= {BasisFunction.monomial(p) for p in itertools.permutations(e)}
    for pair in [(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)]:
        functions.add(BasisFunction.from_terms([(pair, 1), (tuple(1 - x for x in pair), 1)]))
    basis = validate_symmetric_basis(functions)
    counts = {(1, 0, 1, 0): 6, (0, 2, 0, 0): 3, (4, 0, 0, 0): 2}
    nodes = random_symmetric_set(random.Random(1), [counts.get(t.counts, 0) for t in enumerate_types(4)], 4)
    assert (len(basis), len(basis.orbits), len(nodes), len(nodes.orbits)) == (90, 11, 90, 11)
    report = vandermonde(basis, nodes)
    assert report.verdict == VERDICT_SINGULAR and report.determinant == 0
    assert [layer is None for layer in layers] == [False, True]
    # the certificate's pass on the nonsingular 11 x 11 block is the only elimination
    assert blocks == [] and passes == [11]
    assert determinant_mod_p(vandermonde_mod_p(basis.functions, nodes.points)) == 0


def test_singular_by_a_zero_block(monkeypatch):
    # (x1 - x2)(x1 + x2 - 3) lies in total degree 2 and vanishes on these
    # nodes; it is antisymmetric, so the invariant block is nonsingular and
    # the block of the sign character of (1 2) is square and singular
    blocks = _count_eliminated_blocks(monkeypatch)
    basis = validate_symmetric_basis([BasisFunction.monomial(e) for e in total_degree_exponents(2, 2)])
    nodes = validate_symmetric([Point.of(*p) for p in [(1, 1), (5, 5), (0, 3), (3, 0), (1, 2), (2, 1)]])
    assert split(basis, nodes) == 0 == fraction_determinant(vandermonde_matrix(basis.functions, nodes.points))
    assert blocks and blocks[-1][1] == 0


def test_a_singular_invariant_block_is_a_zero_factor_of_the_split(monkeypatch):
    # the quadratic basis vanishes on this case-3 set through its symmetric
    # factor: det B = 0 is a factor of det M, and every block the split
    # eliminates is nonsingular
    blocks = _count_eliminated_blocks(monkeypatch)
    basis, nodes = quadratic_basis(), case3_set(2, 1, 1, Fraction(7, 4))
    assert split(basis, nodes) == 0 == fraction_determinant(vandermonde_matrix(basis.functions, nodes.points))
    assert blocks and all(det for _, det in blocks)


def test_the_invariant_block_decides_the_case3_pair_before_the_split(monkeypatch):
    # that symmetric factor also makes the 2 x 2 invariant block singular
    blocks = _count_eliminated_blocks(monkeypatch)
    basis, nodes = quadratic_basis(), case3_set(2, 1, 1, Fraction(7, 4))
    report = vandermonde(basis, nodes)
    assert report.verdict == VERDICT_SINGULAR and report.determinant == 0
    assert blocks == []


def test_exact_evaluation_refuses_huge_entries():
    functions = [BasisFunction.monomial((999999999, 0)), BasisFunction.monomial((0, 999999999))]
    with pytest.raises(interp.SymlagError, match="bits"):
        vandermonde(validate_symmetric_basis(functions), validate_symmetric([Point.of(1, 2), Point.of(2, 1)]))
    with pytest.raises(interp.SymlagError, match="bits"):
        vandermonde_matrix(functions, [Point.of(Fraction(1, 2), 1)])
    # 0 and 1 have no bits to grow: only the exponents that occur are raised;
    # sorted, x2^999999999 and (0, 1) come first, so the matrix is I
    assert both(functions, [Point.of(0, 1), Point.of(1, 0)]) == (1, 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_elimination_work_is_that_of_the_blocks_the_split_eliminates(n, monkeypatch):
    # the measure is that of the first layer's character blocks, built by
    # _orbits over the nodes' maps of (1 2), (3 4), ...; the later layers
    # only split those blocks further, so what is eliminated never exceeds it
    blocks = _count_eliminated_blocks(monkeypatch)
    rng = random.Random(7300 + n)
    functions = [BasisFunction.monomial(e) for e in total_degree_exponents(n, TOTAL_DEGREE[n])]
    checked = 0
    for _ in range(3):
        nodes = forced_node_set(rng, functions)
        maps = swap_images(nodes.points, adjacent_transpositions(n)[::2])
        work = sum(len(block) ** 3 for block in interp._orbits(maps, len(nodes))[1])
        monkeypatch.setattr(interp, "MAX_ELIMINATION_WORK", work)
        interp.check_elimination_work(nodes)
        monkeypatch.setattr(interp, "MAX_ELIMINATION_WORK", work - 1)
        with pytest.raises(interp.SymlagError, match=f"come to {work}, above the limit of {work - 1};"):
            interp.check_elimination_work(nodes)
        blocks.clear()
        det = vandermonde(validate_symmetric_basis(functions), nodes).determinant
        assert sum(size**3 for size, _ in blocks) <= work
        checked += det != 0  # a singular block, invariant or split, stops the elimination
    assert checked


# -- the layers of the split, on pairs built to exercise them ------------------

def _closure(x, generators):
    """x and its images under the group the permutations generate."""
    seen, todo = {x}, [x]
    while todo:
        y = todo.pop()
        for g in generators:
            z = y.permuted(g)
            if z not in seen:
                seen.add(z)
                todo.append(z)
    return seen


def _pair_swaps(n):
    """(1 2), (3 4), ..., then tau_j = (4j+1 4j+3)(4j+2 4j+4), as permutations."""
    swaps = adjacent_transpositions(n)[::2]
    taus = []
    for j in range(n // 4):
        images = list(range(1, n + 1))
        images[4 * j:4 * j + 4] = [4 * j + 3, 4 * j + 4, 4 * j + 1, 4 * j + 2]
        taus.append(Permutation(images))
    return swaps, taus


def _layer_shapes(items, n):
    """What the layers see of a symmetric set: whether tau fixes an A-orbit,
    and the sizes of the orbits of H = <A, tau> within each S_n-orbit."""
    swaps, taus = _pair_swaps(n)
    tau_fixes, groups, left = False, [], set(items)
    while left:
        whole = _closure(next(iter(left)), adjacent_transpositions(n))
        left -= whole
        sizes = []
        while whole:
            h = _closure(next(iter(whole)), swaps + taus)
            whole -= h
            sizes.append(len(h))
            a = _closure(next(iter(h)), swaps)
            tau_fixes |= any(next(iter(a)).permuted(t) in a for t in taus)
        groups.append(sizes)
    return tau_fixes, groups


# per dimension: the total degree of the monomial part, and further seeds as
# terms; x1^2*x2 + x2^2*x3 + x3^2*x1 is fixed by the 3-cycles only,
# x1^2*x2^2 + x3^2*x4^2 by a dihedral group of order 8, and
# x1*x2*x3 + x4*x5*x6 by S_3 x S_3 and (1 4)(2 5)(3 6): none of these
# stabilizers is a Young subgroup
_LAYER_SEEDS = {
    1: (5, []),
    2: (3, []),
    3: (2, [[((2, 1, 0), 1), ((0, 2, 1), 1), ((1, 0, 2), 1)]]),
    4: (2, [[((2, 2, 0, 0), 1), ((0, 0, 2, 2), 1)]]),
    5: (2, []),
    6: (1, [[((1, 1, 1, 0, 0, 0), 1), ((0, 0, 0, 1, 1, 1), 1)]]),
}


def _layer_basis(rng, n):
    """The S_n-orbits of c0 p + c1 (x1 + ... + xn) p over the seeds p, with
    random rational c0 != 0 and c1 for each: several terms, and the
    stabilizer of p."""
    degree, extra = _LAYER_SEEDS[n]
    seeds = [[(e, 1)] for e in total_degree_exponents(n, degree) if list(e) == sorted(e, reverse=True)] + extra
    functions = set()
    for seed in seeds:
        c0, c1 = rand_fraction(rng, 1, 9, 5), rand_fraction(rng, -9, 9, 5)
        terms = [(e, c0 * k) for e, k in seed]
        terms += [(tuple(x + (i == j) for j, x in enumerate(e)), c1 * k) for e, k in seed for i in range(n)]
        functions |= _closure(BasisFunction.from_terms(terms), adjacent_transpositions(n))
    return sorted(functions)


@pytest.mark.parametrize("n", range(1, 7))
def test_the_layers_keep_the_determinant_exact_sign_included(n):
    # the second derivation is Gaussian elimination over the rationals on
    # the matrix in the sets' sorted order; node sets with repeated
    # coordinates give A-orbits that tau fixes, S_n-orbits that split into
    # H-orbits of unequal sizes, and S_n-orbits that are one H-orbit
    rng = random.Random(7900 + n)
    seen = {"tau fixes an A-orbit": False, "unequal split": False, "one H-orbit": False}
    nonzero = 0
    for _ in range(3):
        functions = _layer_basis(rng, n)
        nodes = forced_node_set(rng, functions)
        split, plain = both(shuffled(rng, functions), shuffled(rng, nodes.points))
        assert split == plain
        nonzero += split != 0
        for items in (functions, nodes.points):
            tau_fixes, groups = _layer_shapes(items, n)
            seen["tau fixes an A-orbit"] |= tau_fixes
            seen["unequal split"] |= any(len(set(sizes)) > 1 for sizes in groups)
            seen["one H-orbit"] |= any(len(sizes) == 1 for sizes in groups)
    assert nonzero
    assert seen == {"tau fixes an A-orbit": n >= 4, "unequal split": n >= 3, "one H-orbit": True}


@pytest.mark.parametrize("n, d, largest", [(5, 4, 28), (3, 6, 34)])
def test_the_split_eliminates_no_block_past_the_first_layers_nontrivial_ones(n, d, largest, monkeypatch):
    # A's trivial block is 58 x 58 at (5,4) and 50 x 50 at (3,6); the pair
    # swaps and the regrouping leave nothing larger than A's other blocks,
    # 28 and 34, and the c x c invariant block is eliminated once, by the
    # certificate's pass, which comes first; every pass is a left_kernel call
    blocks = _count_eliminated_blocks(monkeypatch)
    kernels, passes = [], []
    left_kernel, echelon = _linalg.left_kernel, _linalg._echelon
    monkeypatch.setattr(interp._linalg, "left_kernel", lambda m: kernels.append(len(m)) or left_kernel(m))
    monkeypatch.setattr(interp._linalg, "_echelon", lambda m: passes.append(len(m)) or echelon(m))
    functions = [BasisFunction.monomial(e) for e in total_degree_exponents(n, d)]
    basis = validate_symmetric_basis(functions)
    for seed in (7500, 7501):
        blocks.clear(), kernels.clear(), passes.clear()
        assert vandermonde(basis, forced_node_set(random.Random(seed), functions)).determinant != 0
        assert max(size for size, _ in blocks) <= largest
        assert kernels == [len(basis.orbits), *(size for size, _ in blocks)]
        assert len(passes) == len(blocks) + 1
