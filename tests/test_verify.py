import itertools

import pytest

from alcove_kl import verify
from alcove_kl.errors import ConsistencyError, StabilizationError
from alcove_kl.laurent import LaurentPoly
from alcove_kl.periodic import PeriodicWindow, _window
from alcove_kl.repcalc import GradedMultTable, StdLabel, verma_weight_dim
from alcove_kl.rootsys import ModularContext, build_root_system, kostant_partition
from alcove_kl.verify import (
    check_bijections,
    check_characters,
    check_flipped_convention_fails,
    check_galleries,
    check_inversion_identity,
    check_kl_oracle,
    check_monomial_identity,
    check_rank_one_oracle,
    check_stabilization,
    check_translation_invariance,
    run_suite,
)
from alcove_kl.weylext import translation_elt, waff_elements


def test_suite_passes_dihedral(ctx_a1):
    results = run_suite(ctx_a1, seed=0)
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_individual_checks_a2(ctx_a2):
    assert check_monomial_identity(ctx_a2, 6, 12).passed
    assert check_inversion_identity(ctx_a2, 3, 12).passed
    assert check_rank_one_oracle(ctx_a2, 4, 12).passed  # reports skipped
    assert check_kl_oracle(ctx_a2, 4).passed
    assert check_bijections(ctx_a2).passed
    assert check_characters(ctx_a2, seed=1).passed
    assert check_stabilization(ctx_a2, 3, 10).passed
    assert check_galleries(ctx_a2, 3, 9, seed=2, targets=20).passed
    assert check_translation_invariance(ctx_a2, 2, 12, seed=3, triples=10).passed
    assert check_flipped_convention_fails(ctx_a2).passed


@pytest.mark.parametrize(
    "wrong,detail",
    [
        (
            lambda ctx, lam, mu: kostant_partition(ctx.system, lam - mu, bound=ctx.p - 2),
            "weight table mismatch at lam = (-2, 1), mu = (0, -6): 1 vs Verma 2",
        ),
        (
            lambda ctx, lam, mu: verma_weight_dim(ctx, lam, mu) + 1,
            "weight table mismatch at lam = (-2, 1), mu = (6, 6): 1 vs Verma 0",
        ),
    ],
    ids=["cap-too-low", "above-verma"],
)
def test_characters_check_fails_on_a_wrong_weight_table(ctx_a2, monkeypatch, wrong, detail):
    monkeypatch.setattr(verify, "baby_verma_weight_dim", wrong)
    result = check_characters(ctx_a2, seed=1)
    assert not result.passed
    assert result.detail == detail


def test_bijections_other_rank_two_types():
    for typ in ("B", "C", "G"):
        sys = build_root_system(typ, 2)
        ctx = ModularContext(sys, 7)
        assert check_bijections(ctx).passed


def test_suite_detects_unsupported_system():
    ctx = ModularContext(build_root_system("B", 2), 5)
    res = check_monomial_identity(ctx, 4, 10)
    assert not res.passed
    assert "identity gate" in res.detail


def test_suite_idempotent(ctx_a1):
    first = run_suite(ctx_a1, seed=7)
    second = run_suite(ctx_a1, seed=7)
    assert [(r.name, r.passed, r.detail) for r in first] == [
        (r.name, r.passed, r.detail) for r in second
    ]


def test_galleries_reuse_the_engine_windows(ctx_a2, monkeypatch):
    sys = ctx_a2.system
    _window(sys, 9)
    _window(sys, 10)
    built = []
    init = PeriodicWindow.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("gallery_seed"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(PeriodicWindow, "__init__", counting)
    assert check_galleries(ctx_a2, 3, 9, seed=2, targets=20).passed
    assert len(built) == 2 and None not in built


def test_stabilization_detail_names_the_pair_by_words(ctx_a2):
    # radii 3 and 5 disagree at a pair, named as elt_to_json words
    result = check_stabilization(ctx_a2, 1, 3)
    assert not result.passed
    assert result.detail == (
        'disagreement at y = {"w": [2], "t": [0, 0]}, w = {"w": [], "t": [0, 0]}'
    )


def test_rank_one_oracle_detail_names_the_pair_and_the_value(ctx_a1, monkeypatch):
    monkeypatch.setattr(verify, "_waff_kl", lambda *args: LaurentPoly.gen(2))
    result = check_rank_one_oracle(ctx_a1, 2, 8)
    assert not result.passed
    assert result.detail == (
        'value v^2 outside {0,1,v} at y = {"w": [], "t": [0]}, w = {"w": [], "t": [0]}'
    )


def test_negative_control_reaches_w0_in_rank_three():
    # its windows have the gate's validation radius, 2 l(w0) + 2 = 20,
    # and one more; a fixed radius 8 left w0, of length 9, out of reach
    for cartan_type in ("B", "C"):
        ctx = ModularContext(build_root_system(cartan_type, 3), 7)
        assert check_flipped_convention_fails(ctx).passed


A2 = build_root_system("A", 2)


def _raising(exc):
    def fake(*args, **kwargs):
        raise exc
    return fake


class _ConstantWindow:
    """A window that reads v^5 at every pair, whatever its gallery."""

    def __init__(self, sys, radius, gallery_seed=None):
        pass

    def coefficient(self, y, w):
        return LaurentPoly.gen(5)


# One case per failure return of the checks, each given a wrong value
# through a name the check reads in verify's namespace: (the context,
# the check, that name, the wrong value, the detail the check reports).
FAILURES = {
    "monomial-value": (
        "ctx_a2", lambda ctx: check_monomial_identity(ctx, 6, 12),
        "_waff_kl", lambda *args: LaurentPoly.gen(), "value v at length 1, expected v^3",
    ),
    "inversion-count": (
        "ctx_a1", lambda ctx: check_inversion_identity(ctx, 2, 8),
        "_waff_kl", lambda *args: LaurentPoly.one(), "25 pairs, 25 failures",
    ),
    "inversion-unstable": (
        "ctx_a1", lambda ctx: check_inversion_identity(ctx, 2, 8),
        "_waff_kl", _raising(StabilizationError("no agreement")), "no agreement",
    ),
    "rank-one-layers": (
        "ctx_a1", lambda ctx: check_rank_one_oracle(ctx, 2, 8),
        "loewy_layers", lambda ctx, w, **kw: GradedMultTable(StdLabel.make(ctx, "Z", w), {}),
        'unexpected layers for w = {"w": [], "t": [0]}',
    ),
    "kl-oracle": (
        "ctx_a2", lambda ctx: check_kl_oracle(ctx, 2),
        "kl_basis_by_duality", lambda sys, w: {}, 'mismatch at w = {"w": [], "t": [0, 0]}',
    ),
    "bijection-count": (
        "ctx_a2", check_bijections,
        "restricted_element_for", lambda sys, m: waff_elements(sys, 0)[0],
        'wrong count 1: x = {"w": [], "t": [0, 0]} is the image of 6',
    ),
    "bijection-image": (
        "ctx_a2", check_bijections,
        "is_restricted_elt", lambda ctx, x: False,
        'non-restricted image x = {"w": [1, 2], "t": [0, -1]}',
    ),
    "bijection-involution": (
        "ctx_a2", check_bijections,
        "rho_check_involution", lambda ctx, x: x * translation_elt(A2, A2.rho),
        'not an involution at x = {"w": [1, 2], "t": [0, -1]}, y = {"w": [1, 2], "t": [1, 0]}',
    ),
    "bijection-length": (
        "ctx_a2", check_bijections,
        "rho_check_involution", lambda ctx, x: x,
        'length reversal fails at x = {"w": [1, 2], "t": [0, -1]}, y = {"w": [1, 2], "t": [0, -1]}',
    ),
    "character-total": (
        "ctx_a2", lambda ctx: check_characters(ctx, seed=1),
        "baby_verma_total_dim", lambda ctx, lam: 124, "124 != 125",
    ),
    "stabilization-refused": (
        "ctx_a2", lambda ctx: check_stabilization(ctx, 3, 10),
        "pkl_table", _raising(ConsistencyError("refused")), "refused",
    ),
    "galleries": (
        "ctx_a2", lambda ctx: check_galleries(ctx, 3, 9, seed=2, targets=20),
        "PeriodicWindow", _ConstantWindow,
        'default 1, seeded gallery v^5 at y = {"w": [], "t": [0, 0]}, w = {"w": [], "t": [0, 0]}',
    ),
    "translation-value": (
        "ctx_a2", lambda ctx: check_translation_invariance(ctx, 2, 12, seed=3, triples=10),
        "_coefficient_stabilized", lambda *args, calls=itertools.count(): LaurentPoly.gen(next(calls)),
        '1 at y = {"w": [2], "t": [0, 0]}, w = {"w": [2, 1], "t": [0, 0]}, but v translated by (1, 1)',
    ),
    "translation-refused": (
        "ctx_a2", lambda ctx: check_translation_invariance(ctx, 2, 12, seed=3, triples=10),
        "_validate_conventions", _raising(ConsistencyError("refused")), "refused",
    ),
    "negative-control": (
        "ctx_a2", check_flipped_convention_fails,
        "PeriodicWindow", lambda sys, radius, sign: _window(sys, radius),
        "flipped convention unexpectedly satisfied the identity suite",
    ),
}


@pytest.mark.parametrize("case", FAILURES)
def test_a_wrong_value_fails_the_check_with_its_detail(case, request, monkeypatch):
    ctx_name, run, name, wrong, detail = FAILURES[case]
    monkeypatch.setattr(verify, name, wrong)
    result = run(request.getfixturevalue(ctx_name))
    assert result.passed is False
    assert result.detail == detail
