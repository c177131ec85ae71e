"""Pinned CLI bytes on a float CSV with unusual cell spellings.

The sha256 of the exit code, stdout and stderr of ``ratios`` (with and
without ``--project``), ``response`` and ``efficiency`` on one float CSV.
Its cells are spelled as exponents, leading and trailing points, explicit
signs, fraction literals, underscores, leading zeros, 17-digit reprs and
subnormals, so a change to how cells are parsed or how the dataset digest
is written fails here if it moves a single byte.
"""

import hashlib

import pytest

import fdhscale as f


CSV = (
    "dmu,in_a,in_z,out_y,out_w\n"
    "U1,1e5,5e-324,.5,2\n"
    "U2,5.,1e-310,+3,13/4\n"
    "U3,1_000,2.5e-315,00012,0.1\n"
    "U4,0.30000000000000004,4e-320,1.2345678901234567,7\n"
    "U5,2.5E1,1.5e-318,1e1,+4.0\n"
    "U6, 40 ,3e-322,20/3,1_2.5_0\n"
    "U7,0.1,8.9e-309,0.7,0.9999999999999999\n"
    "U8,7/2,6e-323,5.,3.\n"
    "U9,12,2e-311,9.000000000000002,00.5\n"
    "U10,60_0,1e-320,14.000000000000002,1e2\n"
    "U11,0.1,8.9e-309,0.35,0.5\n"
    "U12,1_2,2e-311,4.5,1/4\n"
)
NAMES = [f"U{k}" for k in range(1, 13)]

CALLS = {
    "ratios": [["ratios", "--dmu", name] for name in NAMES],
    "ratios-project": [["ratios", "--dmu", name, "--project"] for name in NAMES],
    "response": [["response", "--dmu", name] for name in NAMES],
    "efficiency": [
        ["efficiency", "--technology", tech, "--orientation", orient]
        for tech in ("vrs", "crs", "nirs", "ndrs")
        for orient in ("input", "output")
    ],
}

DIGESTS = {
    "efficiency": "b3e96ddd9cfc280fbde7dd399d40972836ba14a433d7a14e04d870229d681187",
    "ratios": "2287ad6675e462b83e772593cb699524d77fbb490125a95c7957c3af44a6ed19",
    "ratios-project": "4ca053102a1591df9f32aae85a2f10f7e6e5ed3bde949715705877e2c101c9f3",
    "response": "2ccb1d50b5209c49b24bbdc1c466511208d55c28c2a7ce234a31451dd2e603b6",
}


@pytest.mark.parametrize("family", sorted(CALLS))
def test_cli_bytes_are_pinned(capsys, tmp_path, family):
    path = tmp_path / "spellings.csv"
    path.write_text(CSV, encoding="utf-8")
    h = hashlib.sha256()
    for argv in CALLS[family]:
        code = f.main([argv[0], "--input", str(path), *argv[1:]])
        captured = capsys.readouterr()
        h.update(f"{code}\n{captured.out}\n{captured.err}\n".encode("utf-8"))
    assert h.hexdigest() == DIGESTS[family]
