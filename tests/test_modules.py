"""Module constructions, hom spaces, decomposition, isomorphism testing.

Expected values follow the fixed contravariant convention (an arrow x -> y
acts M(y) -> M(x)); the representable projective at x is supported on the
paths into x, and hom-space values are pinned by the Yoneda identities.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quivercover import (
    DecompositionInconclusive,
    Field,
    FDModule,
    Mat,
    RelationViolated,
    class_index,
    decompose,
    direct_sum,
    dual_module,
    find_iso,
    hom_basis,
    hom_dim,
    injective_at,
    is_indecomposable,
    is_isomorphic,
    list_indecomposables,
    load_presentation,
    projective_at,
    projective_cover,
    radical_inclusion,
    simple_at,
    smash_cover,
    socle_inclusion,
    validate_module,
    zero_module,
)
from quivercover import modules
from quivercover.field import rank
from quivercover.modules import ModMorphism, identity_morphism, kernel_module
from tests.conftest import GOLDENS, commutes, golden_doc, random_iso, top_module


def all_simples(pres):
    return {x: simple_at(pres, x) for x in pres.vertices}


def test_validate_zero_and_simples(n32):
    validate_module(zero_module(n32))
    for S in all_simples(n32).values():
        validate_module(S)


def test_validate_rejects_loop_violation(loop2):
    # loop with x^2 = 0: the one-dimensional module where x acts as 1
    M = FDModule(loop2, {"v": 1}, {"x": Mat.from_rows(loop2.field, [[1]])})
    with pytest.raises(RelationViolated):
        validate_module(M)


@pytest.mark.parametrize("kind", ["presentation", "cover", "endo"])
def test_validate_rejects_a_broken_reversed_relation_over_an_opposite(kind, n32):
    # f g = 0 in C, so g f = 0 in C^op; the module over C^op on x <- y <- z
    # (in C's direction x -> y -> z) where f and g both act as 1 breaks it,
    # and the violation is named at x, the relation's source in C
    from quivercover.endo import EndoCarrier

    carrier, x = {
        "presentation": (n32, "1"),
        "cover": (smash_cover(n32), ("1", (0,))),
        "endo": (EndoCarrier([projective_at(n32, v) for v in n32.vertices]), 0),
    }[kind]
    _, z, [(_, (f, g))] = carrier.relations_at(x)[0]
    one = Mat.identity(n32.field, 1)
    M = FDModule(carrier.opposite(), {x: 1, carrier.gen_tgt(f): 1, z: 1}, {f: one, g: one})
    with pytest.raises(RelationViolated) as err:
        validate_module(M)
    assert err.value.vertex == x
    validate_module(FDModule(carrier.opposite(), dict(M.dims), {f: one}))


def test_hom_simples(n32):
    S = all_simples(n32)
    assert hom_dim(S["1"], S["1"]) == 1
    assert hom_dim(S["1"], S["2"]) == 0


def test_yoneda_dims(n32, ka3, ausl2):
    # dim Hom(P_x, M) = dim M(x) and dim Hom(M, I_x) = dim M(x)
    for pres in (n32, ka3, ausl2):
        mods = [projective_at(pres, v) for v in pres.vertices]
        mods += [simple_at(pres, v) for v in pres.vertices]
        for x in pres.vertices:
            P = projective_at(pres, x)
            I = injective_at(pres, x)
            for M in mods:
                assert hom_dim(P, M) == M.dim(x)
                assert hom_dim(M, I) == M.dim(x)


def test_hom_projectives_ka3(ka3):
    # Hom(P_x, P_y) = C(x, y): the path space from x to y
    P = {v: projective_at(ka3, v) for v in ka3.vertices}
    for x in ka3.vertices:
        for y in ka3.vertices:
            assert hom_dim(P[x], P[y]) == len(ka3.path_basis(x, y))
    # one of Hom(P_1, P_3), Hom(P_3, P_1) is the length-2 path space, the
    # other vanishes
    dims = {hom_dim(P["1"], P["3"]), hom_dim(P["3"], P["1"])}
    assert dims == {0, 1}


def test_hom_add_u_example(ka2):
    # Hom(P_1, S_2) = S_2(1) = 0 under the fixed convention
    assert hom_dim(projective_at(ka2, "1"), simple_at(ka2, "2")) == 0


def test_projectives_injectives_selfinjective(n32):
    ps = [projective_at(n32, x) for x in n32.vertices]
    is_ = [injective_at(n32, x) for x in n32.vertices]
    for P in ps:
        assert P.total_dim == 2
        assert sum(1 for I in is_ if is_isomorphic(P, I)) == 1


def test_semisimple_projectives_are_simple(semisimple):
    for x in semisimple.vertices:
        P = projective_at(semisimple, x)
        I = injective_at(semisimple, x)
        S = simple_at(semisimple, x)
        assert is_isomorphic(P, S) and is_isomorphic(I, S)


def test_top_and_socle(n32):
    P1 = projective_at(n32, "1")
    T, _ = top_module(P1)
    assert dict(T.dims) == {"1": 1}
    soc, incl = socle_inclusion(P1)
    # the socle of P_1 is the simple at the unique vertex with an arrow into 1
    assert soc.total_dim == 1
    (v,) = soc.dims
    assert any(a.tgt == "1" and a.src == v for a in n32.arrows)
    R, _ = radical_inclusion(P1)
    assert is_isomorphic(R, soc)


def test_projective_cover_of_simple(n32):
    for x in n32.vertices:
        cov = projective_cover(simple_at(n32, x))
        assert cov.vertices == (x,)
        assert is_isomorphic(cov.module, projective_at(n32, x))
        K, _ = kernel_module(cov.epi)
        assert K.total_dim == cov.module.total_dim - 1


def test_top_of_projective_is_simple(ausl2):
    for x in ausl2.vertices:
        T, _ = top_module(projective_at(ausl2, x))
        assert dict(T.dims) == {x: 1}


def test_decompose_trivial_cases(n32):
    P1 = projective_at(n32, "1")
    assert [(m.total_dim, k) for m, k in decompose(P1)] == [(2, 1)]
    S2 = simple_at(n32, "2")
    D, _ = direct_sum([S2, S2])
    parts = decompose(D)
    assert len(parts) == 1 and parts[0][1] == 2
    M, _ = direct_sum([P1, S2])
    parts = decompose(M)
    assert sorted((m.total_dim, k) for m, k in parts) == [(1, 1), (2, 1)]


def test_decompose_certificate(n32):
    # re-sum the summands and certify the isomorphism explicitly
    P1 = projective_at(n32, "1")
    S2 = simple_at(n32, "2")
    M = direct_sum([P1, S2, S2])[0]
    parts = decompose(M)
    rebuilt = direct_sum([m for m, k in parts for _ in range(k)])[0]
    # both sides decompose, so no single basis map need be an iso
    iso = random_iso(rebuilt, M)
    assert iso is not None and iso.is_iso() and commutes(iso)


@pytest.mark.parametrize("name", ["ka2", "n32", "loop2", "ausl2"])
@pytest.mark.parametrize("build", [simple_at, projective_at], ids=["simple", "projective"])
def test_random_endomorphisms_split_three_copies(name, build, monkeypatch, request):
    # with no split along an eigenspace of a basis element, X + X + X is
    # split by random endomorphisms: End is a matrix algebra over End(X),
    # whose End/rad has dimension 9, so a minimal polynomial irreducible of
    # lower degree certifies nothing
    pres = request.getfixturevalue(name)
    X = build(pres, pres.vertices[0])
    primary_split = modules._primary_split

    def refuse_basis(M, T, end):
        split, factors = primary_split(M, T, end)
        return (None if any(T is b for b in end.basis) else split), factors

    monkeypatch.setattr(modules, "_primary_split", refuse_basis)
    parts = decompose(direct_sum([X, X, X])[0])
    assert len(parts) == 1 and parts[0][1] == 3
    assert is_isomorphic(parts[0][0], X)


@pytest.mark.parametrize(
    "field",
    [{"kind": "rationals"}, {"kind": "prime", "p": 32003}, {"kind": "prime", "p": 7}],
    ids=["Q", "F32003", "F7"],
)
def test_a_module_whose_endomorphisms_are_a_field_stays_whole(kronecker, field):
    # a = 1 and b = i on k^2 at both vertices: End(M) = k[i], a field of
    # degree 2 where -1 is not a square, so no endomorphism splits M, and
    # locality needs the certificate of a minimal polynomial of degree
    # dim End(M)/rad
    K = load_presentation(dict(kronecker.to_json_dict(), field=field))
    mat = lambda rows: Mat.from_rows(K.field, rows)
    M = FDModule(K, {"1": 2, "2": 2}, {"a": mat([[1, 0], [0, 1]]), "b": mat([[0, -1], [1, 0]])})
    validate_module(M)
    assert hom_dim(M, M) == 2
    assert decompose(M) == [(M, 1)]
    parts = decompose(direct_sum([M, M])[0])
    assert len(parts) == 1 and parts[0][1] == 2
    assert is_isomorphic(parts[0][0], M)


def test_a_local_endomorphism_ring_is_certified_without_a_draw(loop2, monkeypatch):
    # End(k[x]/(x^2)) is k[x]/(x^2): no basis element splits it, and the
    # trace form finds End/rad of dimension 1 before any random draw
    def refuse(self, rng):
        raise AssertionError("decompose drew a random scalar")

    monkeypatch.setattr(Field, "random_scalar", refuse)
    P = projective_at(loop2, "v")
    M = FDModule(loop2, P.dims, P.gen_mats)
    assert "indec" not in M._cache and hom_dim(M, M) == 2
    assert decompose(M) == [(M, 1)]


def _horner(field, coeffs, T):
    out = Mat.zeros(field, T.rows, T.cols)
    for c in reversed(coeffs):
        out = out @ T + Mat.identity(field, T.rows).scale(c)
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_min_poly_is_minimal_and_its_powers_evaluate_polynomials(data):
    field = data.draw(st.sampled_from([Field.prime(2), Field.prime(32003), Field.rationals()]))
    values = st.integers(-2, 2)
    if field.p is None:
        values = st.one_of(values, st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
    n = data.draw(st.integers(1, 4))
    T = Mat.from_rows(field, [[data.draw(values) for _ in range(n)] for _ in range(n)])
    flat = lambda P: P.reshape(n * n, 1)
    minp, K = modules._min_poly(field, Mat.identity(field, n), lambda P: P @ T, flat)
    d = len(minp) - 1
    assert minp[-1] == 1 and K.shape == (n * n, d)
    assert _horner(field, minp, T).is_zero()
    # the powers below d are independent, so no polynomial of lower degree
    # vanishes at T
    assert rank(K) == d
    q = [data.draw(values) for _ in range(data.draw(st.integers(0, d)))]
    assert modules._krylov_eval(field, K, q) == flat(_horner(field, q, T))


def test_is_isomorphic_basics(n32, ka2):
    P1 = projective_at(n32, "1")
    assert is_isomorphic(P1, P1)
    assert not is_isomorphic(P1, simple_at(n32, "1"))
    assert not is_isomorphic(projective_at(ka2, "1"), simple_at(ka2, "2"))


def test_iso_test_is_inconclusive_where_characteristic_defeats_decomposition():
    # over F_2, k[x]/(x^2) and S + S share dimensions and no basis map is an
    # iso.  The representable is known indecomposable, so that settles it;
    # an unflagged copy leaves the summands to decide, and decompose
    # refuses p <= dim
    doc = golden_doc("loop2")
    doc["field"] = {"kind": "prime", "p": 2}
    L = load_presentation(doc)
    S = simple_at(L, "v")
    P = projective_at(L, "v")
    assert is_isomorphic(P, direct_sum([S, S])[0]) is False
    with pytest.raises(DecompositionInconclusive):
        is_isomorphic(FDModule(L, P.dims, P.gen_mats), direct_sum([S, S])[0])


def test_an_inconclusive_decomposition_is_raised_again_without_a_second_search(monkeypatch):
    doc = golden_doc("loop2")
    doc["field"] = {"kind": "prime", "p": 2}
    L = load_presentation(doc)
    P = projective_at(L, "v")
    M = FDModule(L, P.dims, P.gen_mats)
    splits = []
    real = modules._find_split
    monkeypatch.setattr(modules, "_find_split", lambda *args: splits.append(1) or real(*args))
    errors = []
    for _ in range(2):
        with pytest.raises(DecompositionInconclusive) as info:
            decompose(M)
        errors.append(info.value)
    assert splits == [1] and errors[0] is errors[1]


@pytest.mark.parametrize("name,upstairs", [(name, False) for name in GOLDENS] + [("n32", True), ("loop2", True)])
def test_find_iso_is_exact_on_the_pools(name, upstairs, request):
    # each class is indecomposable, so a basis scan finds an iso exactly
    # between a class and a copy of itself in another basis
    pres = request.getfixturevalue(name)
    pool = list_indecomposables(smash_cover(pres) if upstairs else pres)
    copies = [_change_basis(Y) for Y in pool]
    for i, X in enumerate(pool):
        for j, Y in enumerate(copies):
            iso = find_iso(X, Y)
            assert (iso is not None) == (i == j)
            if iso is not None:
                assert iso.is_iso() and commutes(iso)


def test_iso_tests_draw_no_random_scalar(n32, monkeypatch):
    def refuse(self, rng):
        raise AssertionError("an iso test drew a random scalar")

    monkeypatch.setattr(Field, "random_scalar", refuse)
    for x in n32.vertices:
        P = projective_at(n32, x)
        copy = _change_basis(P)
        assert "indec" not in copy._cache
        assert is_isomorphic(P, copy)
        assert find_iso(P, copy) is not None


def test_indecomposability(n32):
    P1 = projective_at(n32, "1")
    assert is_indecomposable(P1)
    assert not is_indecomposable(direct_sum([P1, P1])[0])
    assert not is_indecomposable(zero_module(n32))


def test_dual_module_duality(n32):
    P1 = projective_at(n32, "1")
    DD = dual_module(dual_module(P1))
    assert DD.carrier is n32
    assert is_isomorphic(DD, P1)
    # dual of a projective is an injective over the opposite
    D = dual_module(P1)
    validate_module(D)
    op = n32.opposite()
    assert any(is_isomorphic(D, injective_at(op, x)) for x in op.objects)


def test_subcategory_spec_checks(n32):
    P1 = projective_at(n32, "1")
    U = [P1, simple_at(n32, "2")]
    assert class_index(projective_at(n32, "1"), U) == 0
    assert class_index(simple_at(n32, "3"), U) is None


def test_hom_composition_is_morphism(n32):
    P1 = projective_at(n32, "1")
    S = simple_at(n32, "1")
    for f in hom_basis(P1, S):
        assert commutes(f)
    ident = identity_morphism(P1)
    assert ((ident @ ident) - ident).is_zero()


def test_rationals_module_path(loop2):
    from quivercover import load_presentation

    doc = {
        "field": {"kind": "rationals"},
        "group": {"kind": "free-abelian", "rank": 1},
        "vertices": ["v"],
        "arrows": [{"id": "x", "src": "v", "tgt": "v", "weight": [1]}],
        "relations": [[{"coeff": "1", "path": ["x", "x"]}]],
        "nilbound": 1,
    }
    pres = load_presentation(doc)
    P = projective_at(pres, "v")
    validate_module(P)
    assert P.total_dim == 2
    parts = decompose(P)
    assert len(parts) == 1 and parts[0][1] == 1


def test_e6_knits_to_the_same_classes_over_q_and_f_p():
    # E6 with every edge oriented from the smaller Bourbaki label to the larger
    # has 36 positive roots, so 36 indecomposables over any field (Gabriel)
    from quivercover import list_indecomposables, load_presentation

    edges = [(1, 3), (3, 4), (2, 4), (4, 5), (5, 6)]
    dim_vectors = {}
    for name, field in (("Q", {"kind": "rationals"}), ("F_32003", {"kind": "prime", "p": 32003})):
        doc = {
            "field": field,
            "group": {"kind": "free-abelian", "rank": 1},
            "vertices": [str(v) for v in range(1, 7)],
            "arrows": [{"id": f"a{a}_{b}", "src": str(a), "tgt": str(b), "weight": [1]} for a, b in edges],
            "relations": [],
            "nilbound": 4,
        }
        mods = list_indecomposables(load_presentation(doc))
        assert len(mods) == 36
        dim_vectors[name] = {tuple(M.dim(str(v)) for v in range(1, 7)) for M in mods}
    assert len(dim_vectors["Q"]) == 36
    assert dim_vectors["Q"] == dim_vectors["F_32003"]


def _linear_power(field, lam, d):
    from quivercover.modules import _poly_mul

    coeffs = [field.scalar(1)]
    for _ in range(d):
        coeffs = _poly_mul(field, coeffs, [field.neg_scalar(field.scalar(lam)), field.scalar(1)])
    return coeffs


def _monic(field, factors):
    out = []
    for cs, mult in factors:
        lead = field.inv_scalar(cs[-1])
        out.append(([field.scalar(c * lead) for c in cs], mult))
    return sorted(out)


def _sympy_factor_list(field, coeffs):
    # sympy's factor_list as it stands: its factors, forms and order
    import sympy

    x = sympy.Symbol("x")
    if field.is_prime_field:
        poly = sympy.Poly([int(c) for c in reversed(coeffs)], x, modulus=field.p)
    else:
        poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], x)

    def scalar(c):
        return field.scalar(c) if field.is_prime_field else Fraction(int(c.p), int(c.q))

    return [([scalar(c) for c in reversed(f.all_coeffs())], int(m)) for f, m in poly.factor_list()[1]]


def _sympy_factors(field, coeffs):
    # sympy's factor_list, each factor made monic
    return _monic(field, _sympy_factor_list(field, coeffs))


@pytest.mark.parametrize("field", [Field.prime(32003), Field.prime(5), Field.rationals()], ids=str)
def test_factor_poly_agrees_with_sympy(field):
    from quivercover.modules import _factor_poly, _poly_mul, _single_root

    roots = [0, 1, 3, 4] if field.is_prime_field else [0, 1, Fraction(-1, 2), Fraction(7, 3)]
    for lam in roots:
        for d in range(1, 5):
            pure = _linear_power(field, lam, d)
            assert _single_root(field, pure) == field.scalar(lam)
            assert _factor_poly(field, pure) == _sympy_factor_list(field, pure)
        mixed = _poly_mul(field, _linear_power(field, lam, 2), _linear_power(field, 2, 1))
        assert _single_root(field, mixed) is None
        assert _monic(field, _factor_poly(field, mixed)) == _sympy_factors(field, mixed)
    x2_plus_1 = [field.scalar(1), field.scalar(0), field.scalar(1)]
    assert _single_root(field, x2_plus_1) is None
    if field.is_prime_field and field.p == 5:
        # d = p: (x - 1)^5 = x^5 - 1, where d is not invertible
        pure = _linear_power(field, 1, 5)
        assert _single_root(field, pure) is None
        assert _factor_poly(field, pure) == _sympy_factor_list(field, pure)


@pytest.mark.parametrize("field", [Field.prime(32003), Field.prime(5), Field.rationals()], ids=str)
def test_factor_poly_writes_a_power_of_one_linear_factor_as_sympy_does(field):
    # the single-root shortcut gives sympy's form too: b x - a over Q for the
    # root a / b, so a non-integer root is not written monic
    import random

    from quivercover.modules import _factor_poly, _single_root

    rng = random.Random(13)
    checked = 0
    while checked < 40:
        lam = _random_root(field, rng)
        d = rng.randint(1, 6)
        if field.is_prime_field and d >= field.p:
            continue
        if not field.is_prime_field and checked < 20 and lam.denominator == 1:
            continue  # the first half: non-integer roots only
        pure = _linear_power(field, lam, d)
        assert _single_root(field, pure) == field.scalar(lam)
        assert _factor_poly(field, pure) == _sympy_factor_list(field, pure), (lam, d)
        checked += 1


def _record_imports(monkeypatch):
    # every module name imported from now on, in order
    import builtins

    seen = []
    real = builtins.__import__

    def spy(name, *args, **kwargs):
        seen.append(name)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", spy)
    return seen


def _random_root(field, rng):
    if field.is_prime_field:
        return rng.choice([0, 1, field.p - 1, rng.randrange(field.p)])
    return Fraction(rng.randint(-12, 12), rng.choice([1, 1, 2, 3, 4]))


@pytest.mark.parametrize(
    "field", [Field.prime(32003), Field.prime(5), Field.prime(2), Field.rationals()], ids=str
)
def test_factor_poly_splits_products_of_linear_factors_as_sympy_does(field, monkeypatch):
    # a product of at least two distinct linear factors is split without sympy
    # into exactly sympy's factors, forms and order: by multiplicity, then by
    # coefficients (over Q, b x - a for the root a / b)
    import random

    from quivercover.modules import _factor_poly, _poly_mul

    rng = random.Random(12)
    seen = _record_imports(monkeypatch)
    checked = 0
    while checked < 60:
        roots = [_random_root(field, rng) for _ in range(rng.randint(2, 7))]
        if len({field.scalar(r) for r in roots}) < 2:
            continue
        coeffs = [field.scalar(1)]
        for r in roots:
            coeffs = _poly_mul(field, coeffs, _linear_power(field, r, 1))
        expected = _sympy_factor_list(field, coeffs)
        seen.clear()
        assert _factor_poly(field, coeffs) == expected, roots
        assert "sympy" not in seen
        checked += 1


@pytest.mark.parametrize(
    "field, coeffs",
    [
        (Field.rationals(), [Fraction(1), Fraction(0), Fraction(1)]),  # x^2 + 1
        (Field.prime(5), [3, 0, 1]),  # x^2 - 2
        (Field.prime(32003), [32002, 0, 0, 0, 1]),  # (x - 1)(x + 1)(x^2 + 1)
        (Field.rationals(), [Fraction(-2), Fraction(2), Fraction(-1), Fraction(1)]),  # (x - 1)(x^2 + 2)
    ],
    ids=["x2+1/Q", "x2-2/F5", "x4-1/F32003", "(x-1)(x2+2)/Q"],
)
def test_factor_poly_hands_an_irreducible_quadratic_to_sympy(field, coeffs, monkeypatch):
    from quivercover.modules import _factor_poly

    expected = _sympy_factor_list(field, coeffs)
    assert any(len(f) == 3 for f, _ in expected)
    seen = _record_imports(monkeypatch)
    assert _factor_poly(field, coeffs) == expected
    assert "sympy" in seen


def _kron_hom_kernel(M, N):
    # the commuting-square system of hom_basis assembled block by block with
    # np.kron, and its kernel
    import numpy as np

    from quivercover.field import kernel_basis
    from quivercover.modules import _square_generators

    field = M.carrier.field
    offsets, nvars = {}, 0
    for x in M.support:
        if N.dim(x):
            offsets[x] = nvars
            nvars += M.dim(x) * N.dim(x)
    rows = []
    for g, x, y in _square_generators(M, N):
        if x not in offsets and y not in offsets:
            continue
        block = np.zeros((N.dim(x) * M.dim(y), nvars), dtype=object)
        if x in offsets:
            k = np.kron(np.eye(N.dim(x), dtype=object), np.array(M.mat(g).tolists(), dtype=object).T)
            block[:, offsets[x] : offsets[x] + k.shape[1]] += k
        if y in offsets:
            k = np.kron(np.array(N.mat(g).tolists(), dtype=object), np.eye(M.dim(y), dtype=object))
            block[:, offsets[y] : offsets[y] + k.shape[1]] -= k
        rows.append(block)
    if not rows:
        return Mat.identity(field, nvars), list(offsets)
    return kernel_basis(Mat.from_rows(field, np.vstack(rows).tolist())), list(offsets)


def _change_basis(M):
    # M with each space M(x) in the basis given by an upper-triangular T_x
    # with 2 on the diagonal, so that over Q the new matrices have
    # denominators
    from quivercover.field import solve_linear

    field = M.carrier.field
    T = {
        x: Mat.from_rows(field, [[(2 if j == i else 1) if j >= i else 0 for j in range(M.dim(x))] for i in range(M.dim(x))])
        for x in M.support
    }
    Tinv = {x: solve_linear(t, Mat.identity(field, t.rows)) for x, t in T.items()}
    mats = {
        g: T[M.carrier.gen_src(g)] @ m @ Tinv[M.carrier.gen_tgt(g)] for g, m in M.gen_mats.items()
    }
    return FDModule(M.carrier, M.dims, mats)


@pytest.mark.parametrize("name", ["loop2", "n32"])
@pytest.mark.parametrize("field", [{"kind": "prime", "p": 32003}, {"kind": "rationals"}], ids=["F_32003", "Q"])
def test_hom_basis_is_the_kernel_of_the_kron_system(name, field):
    # loop2 has a loop, where both sides of a square land in the same columns
    import numpy as np

    from quivercover import list_indecomposables, load_presentation

    from tests.conftest import golden_doc

    pres = load_presentation({**golden_doc(name), "field": field})
    pool = list_indecomposables(pres)
    mods = pool + [direct_sum(pool)[0]]
    # the same modules in other bases, where the loop's matrices have nonzero diagonals
    mods += [_change_basis(M) for M in mods]
    for M in mods:
        for N in mods:
            kern, objs = _kron_hom_kernel(M, N)
            basis = hom_basis(M, N)
            assert len(basis) == kern.cols
            if basis:
                cols = [
                    np.concatenate([np.array(phi.vertex(x).tolists(), dtype=object).reshape(-1) for x in objs])
                    for phi in basis
                ]
                assert Mat.from_rows(pres.field, np.stack(cols, axis=1).tolist()) == kern



def _injective_by_right_multiplication(carrier, x):
    # D C(x, -) from the structure constants: a generator g acts by the
    # transpose of q |-> q.g, C(x, src g) -> C(x, tgt g)
    dims = {y: carrier.hom_dim(x, y) for y in carrier.injective_support(x)}
    mats = {}
    for g, s, t in modules._acting_generators(carrier, dims):
        cols, rows = carrier.hom_labels(x, s), carrier.hom_labels(x, t)
        index = {lab: i for i, lab in enumerate(rows)}
        m = [[0] * len(cols) for _ in rows]
        for j, q in enumerate(cols):
            for lab, c in carrier.compose_labels(x, s, t, q, carrier.gen_label(g)).items():
                m[index[lab]][j] = c
        mats[g] = Mat.from_rows(carrier.field, m, len(cols)).transpose()
    return FDModule(carrier, dims, mats)


@pytest.mark.parametrize("name", GOLDENS)
def test_injectives_match_right_multiplication(name, request):
    from quivercover import EndoCarrier, smash_cover
    from quivercover.precluster import _translate_closure

    pres = request.getfixturevalue(name)
    carriers = [pres, smash_cover(pres)]
    for C in list(carriers):
        for n in (1, 2):
            carriers.append(EndoCarrier(_translate_closure(C, "both", n, 32)[0]))
    for C in carriers:
        for x in C.fundamental_domain():
            I, ref = injective_at(C, x), _injective_by_right_multiplication(C, x)
            assert I.carrier is C
            assert I.dims == ref.dims and I.gen_mats == ref.gen_mats


def _cokernel_by_three_eliminations(phi):
    """Reference: the cokernel as built when its column space, complement
    and projection each took their own elimination."""
    from quivercover.field import column_space_basis, hstack, solve_linear

    N = phi.tgt
    field = N.carrier.field
    proj, section, dims = {}, {}, {}
    for x in N.support:
        im = column_space_basis(phi.vertex(x))
        comp = modules._complement_columns(field, im)
        dims[x] = len(comp)
        if comp:
            section[x] = Mat.identity(field, N.dim(x))[:, comp]
            inv = solve_linear(hstack([im, section[x]]), Mat.identity(field, N.dim(x)))
            proj[x] = inv[im.cols :, :]
    gens = modules._acting_generators(N.carrier, dims)
    C = FDModule(N.carrier, dims, {g: proj[s] @ N.mat(g) @ section[t] for g, s, t in gens})
    return C, proj


@pytest.mark.parametrize("rationals", [False, True], ids=["F_32003", "Q"])
@pytest.mark.parametrize("name", GOLDENS)
def test_cokernel_matches_the_three_elimination_reference(name, rationals):
    # every basis map between the first classes of the pool, and each
    # radical and socle inclusion, over the base
    doc = golden_doc(name)
    pres = load_presentation(dict(doc, field={"kind": "rationals"}) if rationals else doc)
    pool = list_indecomposables(pres)[:6]
    maps = [phi for M in pool for N in pool for phi in hom_basis(M, N)]
    maps += [radical_inclusion(M)[1] for M in pool] + [socle_inclusion(M)[1] for M in pool]
    for phi in maps:
        (C, projection), (ref, ref_proj) = modules.cokernel_module(phi), _cokernel_by_three_eliminations(phi)
        assert (C.dims, C.gen_mats) == (ref.dims, ref.gen_mats)
        assert projection.mats == {x: m for x, m in ref_proj.items() if m.rows and m.cols}


def _reference_projective_cover(M):
    # the former cover: a basis of the radical, then its completion by unit
    # vectors, each a separate elimination, and every column q.v the whole
    # matrix chain of the path q applied to the lift v
    from quivercover.field import Mat, column_space_basis, hstack, rref

    carrier, field = M.carrier, M.carrier.field
    vertices, lifts = [], []
    for x in sorted(M.support, key=carrier.object_index):
        blocks = [M.mat(g) for g in carrier.generators_at_source(x) if M.dim(carrier.gen_tgt(g))]
        rad = column_space_basis(hstack(blocks)) if blocks else Mat.zeros(field, M.dim(x), 0)
        _, pivots = rref(hstack([rad, Mat.identity(field, M.dim(x))]))
        for p in pivots:
            if p >= rad.cols:
                vertices.append(x)
                lifts.append(Mat.identity(field, M.dim(x))[:, [p - rad.cols]])
    projs = [projective_at(carrier, x) for x in vertices]
    P, offsets = direct_sum(projs)
    mats = {}
    for y in P.support:
        cols = [
            M.act_label(y, x, q) @ lifts[k]
            for k, x in enumerate(vertices)
            if projs[k].dim(y)
            for q in carrier.hom_labels(y, x)
        ]
        if cols:
            mats[y] = hstack(cols)
    return P, ModMorphism(P, M, mats).mats, tuple(vertices), offsets


def _cover_carriers(name, field):
    """The base, its cover, its opposite and the endomorphism category of
    its tau-closure, each with modules over it: its pool, their radicals
    and their sum."""
    from quivercover import EndoCarrier, load_presentation, radical_inclusion, smash_cover
    from quivercover.precluster import _translate_closure

    base = load_presentation({**golden_doc(name), "field": field})
    carriers = [base, smash_cover(base), EndoCarrier(_translate_closure(base, "both", 1, 32)[0])]
    out = [(C, list_indecomposables(C)) for C in carriers]
    out.append((base.opposite(), [dual_module(M) for M in out[0][1]]))
    return [(C, mods + [radical_inclusion(M)[0] for M in mods] + [direct_sum(mods)[0]]) for C, mods in out]


@pytest.mark.parametrize("field", [{"kind": "prime", "p": 32003}, {"kind": "rationals"}], ids=["F_32003", "Q"])
@pytest.mark.parametrize("name", GOLDENS)
def test_a_cover_evaluates_each_path_once_with_the_same_matrices(name, field):
    for carrier, mods in _cover_carriers(name, field):
        for M in mods:
            cov = modules._build_projective_cover(M)
            if M.is_zero():
                assert cov.vertices == () and cov.module.is_zero()
                continue
            P, mats, vertices, offsets = _reference_projective_cover(M)
            assert cov.module.carrier is carrier
            assert (cov.module.dims, cov.module.gen_mats) == (P.dims, P.gen_mats)
            assert cov.epi.mats == mats
            assert (cov.vertices, cov.offsets) == (vertices, offsets)
