"""Window and stabilization errors name the pair and what to try next.

Each message names the labels as ``elt_to_json`` words.  A
StabilizationError names both radii and the next radius to try; a
WindowError names the smallest radius that reaches the pair, or the
table's length bound.  A DomainError for an element of another root
system names both systems.  Exit codes and JSON error kinds are those of
``errors``.
"""

import json

import pytest

from alcove_kl.cli import main
from alcove_kl.errors import ConsistencyError, DomainError, StabilizationError, WindowError
from alcove_kl.hecke import kl_basis, spherical_kl
from alcove_kl.periodic import (
    PeriodicWindow,
    _coefficient_stabilized,
    antispherical_kl,
    periodic_kl,
    pkl_table,
)
from alcove_kl.repcalc import StdLabel, loewy_layers
from alcove_kl.rootsys import ModularContext, Weight, build_root_system
from alcove_kl.weylext import (
    check,
    check_for_system,
    dot_action,
    elt_to_json,
    from_word,
    identity_elt,
    is_restricted_elt,
    length,
    restricted_shift,
    rho_check_involution,
    simple_reflection,
    translation_elt,
    w0_elt,
    waff_elements,
)

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
CTX_A1 = ModularContext(A1, 5)
CTX_A2 = ModularContext(A2, 5)


def words(sys, **labels):
    return ", ".join(f"{k} = {json.dumps(elt_to_json(sys, x))}" for k, x in labels.items())


def test_unstable_coefficient_names_pair_radii_and_next_radius():
    y, w = from_word(A2, [2]), from_word(A2, [])
    with pytest.raises(StabilizationError) as info:
        periodic_kl(CTX_A2, y, w, radius=4)
    assert str(info.value) == (
        f"coefficient at {words(A2, y=y, w=w)} did not stabilize between "
        "radius 4 and 5: 0 vs v; try radius 5"
    )


def test_pair_out_of_reach_names_the_smallest_radius():
    y, w = from_word(A1, [0, 1, 0, 1]), from_word(A1, [0, 1, 0, 1, 0])
    with pytest.raises(WindowError) as info:
        _coefficient_stabilized(A1, y, w, radius=3)
    assert str(info.value) == (
        f"pair {words(A1, y=y, w=w)} of lengths (4, 5) is out of reach of "
        "window radius 3; radius 5 reaches it"
    )


def test_window_lookups_name_the_smallest_radius():
    win = PeriodicWindow(A1, 2)
    inside, outside = from_word(A1, [0]), from_word(A1, [0, 1, 0])
    with pytest.raises(WindowError) as info:
        win.row(outside)
    assert str(info.value) == (
        f"element {words(A1, w=outside)} of length 3 is outside the window "
        "of radius 2; radius 3 reaches it"
    )
    with pytest.raises(WindowError) as info:
        win.coefficient(outside, inside)
    assert str(info.value) == (
        f"pair {words(A1, y=outside, w=inside)} of lengths (3, 1) is out of "
        "reach of window radius 2; radius 3 reaches it"
    )


def test_window_row_reads_only_members():
    # a label one step beyond the radius, which the window must not number
    win = PeriodicWindow(A2, 4)
    far = from_word(A2, [1, 2, 1, 0, 1])
    assert length(A2, far) == 5
    with pytest.raises(WindowError) as info:
        win.row(far)
    assert str(info.value) == (
        f"element {words(A2, w=far)} of length 5 is outside the window "
        "of radius 4; radius 5 reaches it"
    )
    assert far not in win.members
    for w in waff_elements(A2, 2):
        row = win.row(w)
        stored = win.rows[win.members[w]]
        assert row == {win.elts[y]: win.codec.unpack(p) for y, p in stored.items()}
    # no radius reaches a label outside W_aff
    with pytest.raises(DomainError, match="indexed by W_aff"):
        win.row(translation_elt(A2, Weight((1, 0))))


def test_table_bound_beyond_the_radius_names_the_radius_that_reaches_it():
    with pytest.raises(WindowError) as info:
        pkl_table(CTX_A2, length_bound=4, radius=3)
    assert str(info.value) == (
        "length bound 4 exceeds the window radius 3; radius 4 reaches it"
    )


def test_orbit_disagreement_names_the_pair_its_representative_and_the_radius(tmp_path, capsys):
    # at small radii two members of one orbit each stabilize, on different values
    y, w = from_word(A2, [1, 2, 0, 1]), from_word(A2, [1, 0, 2, 0])
    rep_y, rep_w = from_word(A2, [2, 1]), from_word(A2, [])
    message = (
        f"translation invariance failed at {words(A2, y=y, w=w)}: it reads 0, but "
        f"its orbit, of representative {words(A2, y=rep_y, w=rep_w)}, holds v^2; "
        "both are stable between radius 4 and 5"
    )
    with pytest.raises(ConsistencyError) as info:
        pkl_table(CTX_A2, 4, 4)
    assert str(info.value) == message
    code = main([
        "periodic", "--type", "A", "--rank", "2", "--p", "5", "--lmax", "4",
        "--window", "4", "--cache-dir", str(tmp_path),
    ])
    assert code == 4
    assert json.loads(capsys.readouterr().err) == {"error": "identity", "message": message}


def test_cli_keeps_exit_code_and_kind(tmp_path, capsys):
    code = main([
        "loewy", "--type", "A", "--rank", "2", "--p", "5", "--w", "0",
        "--window", "4", "--cache-dir", str(tmp_path),
    ])
    err = json.loads(capsys.readouterr().err)
    assert code == 3
    assert err["error"] == "stabilization"
    assert err["message"].endswith("try radius 5")
    assert "did not stabilize between radius 4 and 5" in err["message"]


B2, G2 = build_root_system("B", 2), build_root_system("G", 2)
E_A2, E_B2, Y_B2 = identity_elt(A2), identity_elt(B2), from_word(B2, [0, 1, 2])
X_G2 = from_word(G2, [1, 2, 1])
# two finite G2 elements for the reads of A2's finite table, which has
# six entries: a G2 number below six names an A2 entry, one past it none
FINITE_G2 = {"s1 s2 s1 s2 s1": from_word(G2, [1, 2, 1, 2, 1]), "w0": w0_elt(G2)}
FINITE_READS = {
    "elt_to_json": lambda x: elt_to_json(A2, x),
    "check_for_system": lambda x: check_for_system(A2, x),
    "check": lambda x: check(CTX_A2, x),
    "restricted_shift": lambda x: restricted_shift(A2, x),
    "StdLabel.make": lambda x: StdLabel.make(CTX_A2, "L", x),
    "dot_action": lambda x: dot_action(CTX_A2, x, Weight.zero(2)),
    "is_restricted_elt": lambda x: is_restricted_elt(CTX_A2, x),
    "rho_check_involution": lambda x: rho_check_involution(CTX_A2, x),
}

# each read gives A2 an element of B2 or G2; a table numbers only the
# elements of its own system, and a product of elements of two systems
# has no meaning, but each read used to return a value or raise a bare
# IndexError (or, for rho_check_involution, refuse it as unrestricted)
FOREIGN_READS = {
    "product": lambda: E_A2 * simple_reflection(G2, 1),
    "length": lambda: length(A2, X_G2),
    "kl_basis": lambda: kl_basis(A2, X_G2),
    "spherical_kl": lambda: spherical_kl(A2, X_G2),
    "spherical_kl, coset-maximal": lambda: spherical_kl(A2, w0_elt(G2)),
    "periodic_kl": lambda: periodic_kl(CTX_A2, E_B2, Y_B2, 13),
    "periodic_kl, memoized key": lambda: periodic_kl(CTX_A2, E_B2, E_B2, 13),
    "periodic_kl, one label": lambda: periodic_kl(CTX_A2, E_A2, E_B2, 13),
    "antispherical_kl": lambda: antispherical_kl(A2, E_B2, Y_B2),
    "antispherical_kl, identity": lambda: antispherical_kl(A2, E_B2, E_B2),
    "loewy_layers": lambda: loewy_layers(CTX_A2, X_G2, 3, 13),
    **{
        f"{read}, {name}": (lambda read=read, x=x: FINITE_READS[read](x))
        for read in FINITE_READS
        for name, x in FINITE_G2.items()
    },
}


@pytest.mark.parametrize("name", FOREIGN_READS)
def test_an_element_of_another_system_is_refused_naming_both_systems(name):
    periodic_kl(CTX_A2, E_A2, E_A2, 13)  # (e, e)'s orbit key is in the memo
    with pytest.raises(DomainError, match=r"^an element of [BG]2 where one of A2 is expected$"):
        FOREIGN_READS[name]()
