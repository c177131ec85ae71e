"""What a run loads: no OpenSSL for the digest, the verifier only for ``verify``, and
no ``dataclasses``, ``inspect``, ``typing`` or ``pathlib`` at all."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fdhscale as f
from fdhscale import io_cli

from conftest import float_csv_lines

# the child imports the package under test, installed or not
SRC = str(Path(f.__file__).parents[1])
HEAVY = {"_hashlib", "fdhscale.oracle"}
# records are named tuples and annotations are never evaluated, so none of these
# is needed to run; dataclasses alone pulls in inspect, ast, dis and tokenize
MACHINERY = {"dataclasses", "inspect", "typing", "pathlib"}


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter without ``site``, whose own imports would show too."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-S", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def _imported(*args: str) -> set[str]:
    """Every module a fresh interpreter imports while it runs ``args``."""
    proc = _python("-X", "importtime", *args)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines[1:]}


class TestWhatARunLoads:
    def test_importing_the_cli_loads_neither_openssl_nor_the_verifier(self):
        loaded = _imported("-c", "import fdhscale.io_cli")
        assert "fdhscale.io_cli" in loaded
        assert loaded & HEAVY == set()

    def test_a_report_loads_neither_openssl_nor_the_verifier(self, stair_csv):
        loaded = _imported("-m", "fdhscale", "report", "--input", str(stair_csv))
        assert "fdhscale.rts" in loaded
        assert loaded & HEAVY == set()

    def test_verify_loads_the_verifier(self, stair_csv):
        argv = ["verify", "--input", str(stair_csv), "--trials", "1"]
        loaded = _imported("-m", "fdhscale", *argv)
        assert "fdhscale.oracle" in loaded
        assert "_hashlib" not in loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ["-c", "import fdhscale.io_cli"],
            ["-m", "fdhscale", "report", "--input", "{csv}"],
            ["-m", "fdhscale", "verify", "--input", "{csv}", "--trials", "1"],
        ],
        ids=["import", "report", "verify"],
    )
    def test_no_run_loads_the_record_or_annotation_machinery(self, stair_csv, argv):
        loaded = _imported(*(arg.format(csv=stair_csv) for arg in argv))
        assert "fdhscale.rts" in loaded
        assert loaded & MACHINERY == set()


class TestPublicNames:
    def test_every_listed_name_resolves_in_a_fresh_process(self):
        # the first verifier name read loads the verifier
        script = (
            "import sys\n"
            "import fdhscale as f\n"
            "assert 'fdhscale.oracle' not in sys.modules\n"
            "assert f.verify_dataset is sys.modules['fdhscale.oracle'].verify_dataset\n"
            "print([name for name in f.__all__ if getattr(f, name, None) is None])\n"
        )
        proc = _python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_dir_lists_every_listed_name(self):
        assert set(f.__all__) <= set(dir(f))
        assert "oracle" in dir(f)

    def test_the_oracle_attribute_is_the_module(self):
        from fdhscale import oracle

        assert f.oracle is oracle is sys.modules["fdhscale.oracle"]

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'not_a_name'"):
            f.not_a_name  # noqa: B018


def test_the_hashlib_fallback_gives_the_same_digests(tmp_path):
    # 600 rows: the digest hashes 512 lines at a time, so two updates
    path = tmp_path / "floats.csv"
    path.write_text("\n".join(float_csv_lines(600)) + "\n", encoding="utf-8")
    script = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib\n"
        "from fdhscale import io_cli\n"
        "assert io_cli.sha256 is hashlib.sha256, io_cli.sha256\n"
        "for exact in (False, True):\n"
        "    print(io_cli._digest(io_cli.read_csv(sys.argv[1], exact=exact)))\n"
    )
    proc = _python("-c", script, str(path))
    assert proc.returncode == 0, proc.stderr
    want = [io_cli._digest(io_cli.read_csv(path, exact=exact)) for exact in (False, True)]
    assert proc.stdout.split() == want
