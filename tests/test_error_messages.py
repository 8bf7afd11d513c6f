"""Window and stabilization errors name the pair and what to try next.

Each message names the labels as ``elt_to_json`` words.  A
StabilizationError names both radii and the next radius to try; a
WindowError names the smallest radius that reaches the pair, or the
table's length bound.  Exit codes and JSON error kinds are those of ``errors``.
"""

import json

import pytest

from alcove_kl.cli import main
from alcove_kl.errors import ConsistencyError, DomainError, StabilizationError, WindowError
from alcove_kl.periodic import PeriodicWindow, _coefficient_stabilized, periodic_kl, pkl_table
from alcove_kl.rootsys import ModularContext, Weight, build_root_system
from alcove_kl.weylext import elt_to_json, from_word, length, translation_elt, waff_elements

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
