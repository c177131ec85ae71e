"""Pinned ``verify`` bytes.

The sha256 of ``fdhscale verify`` stdout, and its exit code, on a fixed
corpus: the staircase and one dominated-unit variant at ``--grid-steps``
100, three seeded small exact datasets at 100 and 1000, and a run over
seeded random trials. Any change to the oracle or the checks that moves a
single output byte, or the exit code, fails here.
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
    "dom-6-5/100": (0, "4eb3dae9eec43bbc84ef95ebf45584a5eb177abef18b6e0bff97d03ede4cb8cb"),
    "rand-11/100": (0, "07bcf442aa847173d373a82dcfd476d0a8664a508194df8c2b1b3c9ae6e08a23"),
    "rand-11/1000": (0, "6a50d68fceafda93b10342255f8e0fa2c6a6ec4fa7186b725459b44cfa2f9362"),
    "rand-23/100": (0, "8b88fe6d82cd254cdb73dd8d7a8f36629b5d1b52e97524aa549f83517ea2bc8b"),
    "rand-23/1000": (0, "9255e5ff9ae8c1f37e59db9c1a8348bf4f2232a53b72fcc73fc07bbf8bea7113"),
    "rand-7/100": (0, "aeb18ab4c9fc4da46825c8a5d7801ab1c1bba2967c3c44e9d7cd0d51d662f25f"),
    "rand-7/1000": (0, "81a455756f4c2cbab1e0ca4b56b873235ddfdb719d8a4b781b15e6377fd0afc5"),
    "stair/100": (0, "f1b1556690fd94c3b4b92838711975fb946ec96a1e02b6c52077dc3989d960a9"),
    "trials-5/100": (0, "d75c9b216e53005f310db63bcf54587738c99fe696a393edec36c53e478f059f"),
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
