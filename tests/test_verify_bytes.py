"""Pinned ``verify`` bytes.

The sha256 of ``fdhscale verify`` stdout, and its exit code, on a fixed
corpus: the staircase and one dominated-unit variant at ``--grid-steps``
100, three seeded small exact datasets at 100 and 1000, and a run over
seeded random trials. Any change to the oracle or the checks that moves a
single output byte, or the exit code, fails here. ``--grid-steps`` is
accepted, not read, so both settings of a dataset pin the same bytes.
"""

import hashlib

import pytest

import fdhscale as f

from conftest import make_staircase, with_dominated


CORPUS = {
    "stair": lambda: make_staircase(),
    "dom-6-5": lambda: with_dominated("E", x=(6,), y=(5,)),
    "rand-7": lambda: f.random_dataset(7, 6, 2, 2),
    "rand-11": lambda: f.random_dataset(11, 8, 1, 2),
    "rand-23": lambda: f.random_dataset(23, 7, 3, 1),
}

CASES = [
    (case, steps)
    for case in sorted(CORPUS)
    for steps in (["100"] if case in ("stair", "dom-6-5") else ["100", "1000"])
]

DIGESTS = {
    "dom-6-5/100": (0, "d6e1f41bf3066429e18d7f7498c10d148532d2338b7ceb5e7c6f4f50ce02c489"),
    "rand-11/100": (0, "b8b9602e81be0512bb9551e2da93dd38535d85c7c48504ce77312c4229a7fec0"),
    "rand-11/1000": (0, "b8b9602e81be0512bb9551e2da93dd38535d85c7c48504ce77312c4229a7fec0"),
    "rand-23/100": (0, "163f997c41edbd7e4dbf5b851070e0c096b06117e5900177a737dced7c12262d"),
    "rand-23/1000": (0, "163f997c41edbd7e4dbf5b851070e0c096b06117e5900177a737dced7c12262d"),
    "rand-7/100": (0, "5d7bcd0b0048b045e628d102ab8acec9a0042d212451347061d89057c4f9ff9a"),
    "rand-7/1000": (0, "5d7bcd0b0048b045e628d102ab8acec9a0042d212451347061d89057c4f9ff9a"),
    "stair/100": (0, "26877ce004e192e45296992f2ec4b708950f634b1a55032d0565574186e32f9f"),
    "trials-5/100": (0, "66e284b43a6cde2e138c7761d9aebcf855b92dafb8db19ba79b4f379afb7efc8"),
}


def run_verify(capsys, *argv):
    code = f.main(["verify", *argv])
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case,steps", CASES)
def test_verify_input_bytes_are_pinned(capsys, tmp_path, case, steps):
    path = tmp_path / f"{case}.csv"
    f.write_csv(CORPUS[case](), path)
    got = run_verify(
        capsys, "--input", str(path), "--trials", "0", "--grid-steps", steps
    )
    assert got == DIGESTS[f"{case}/{steps}"]


def test_verify_trials_bytes_are_pinned(capsys):
    got = run_verify(capsys, "--trials", "5", "--grid-steps", "100")
    assert got == DIGESTS["trials-5/100"]
