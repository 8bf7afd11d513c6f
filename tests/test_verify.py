import pytest

from alcove_kl import verify
from alcove_kl.laurent import LaurentPoly
from alcove_kl.periodic import PeriodicWindow, _window
from alcove_kl.repcalc import verma_weight_dim
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
    "wrong",
    [
        lambda ctx, lam, mu: kostant_partition(ctx.system, lam - mu, bound=ctx.p - 2),
        lambda ctx, lam, mu: verma_weight_dim(ctx, lam, mu) + 1,
    ],
    ids=["cap-too-low", "above-verma"],
)
def test_characters_check_fails_on_a_wrong_weight_table(ctx_a2, monkeypatch, wrong):
    monkeypatch.setattr(verify, "baby_verma_weight_dim", wrong)
    result = check_characters(ctx_a2, seed=1)
    assert not result.passed
    assert result.detail == "weight table mismatch"


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
    monkeypatch.setattr(verify, "periodic_kl", lambda *args: LaurentPoly.gen(2))
    result = check_rank_one_oracle(ctx_a1, 2, 8)
    assert not result.passed
    assert result.detail == (
        'value v^2 outside {0,1,v} at y = {"w": [], "t": [0]}, w = {"w": [], "t": [0]}'
    )
