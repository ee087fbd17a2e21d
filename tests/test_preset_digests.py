"""Byte-identity guard: every `cavsim preset full` CSV against its committed SHA-256.

The digests in ``preset_full_sha256.json`` were written with one BLAS thread
(``conftest.py`` pins it); the numpy and BLAS versions used are stored beside
them.  After a deliberate change of the data products, regenerate them with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/test_preset_digests.py
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from cavsim import cli  # noqa: E402

DIGESTS = Path(__file__).with_name("preset_full_sha256.json")


def preset_full_digests(out: Path) -> dict[str, str]:
    assert cli.main(["preset", "full", "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _versions() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def test_preset_full_csvs_are_byte_identical(tmp_path, capsys):
    stored = json.loads(DIGESTS.read_text())
    got = preset_full_digests(tmp_path)
    capsys.readouterr()
    assert sorted(got) == sorted(stored["sha256"])
    changed = sorted(name for name, digest in got.items() if digest != stored["sha256"][name])
    assert not changed, (
        f"{len(changed)} of {len(got)} preset CSVs changed bytes: {changed[:5]}; digests were "
        f"written with numpy {stored['numpy']}, {stored['blas']}, this run uses {_versions()}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = preset_full_digests(Path(tmp))
    record = {"command": "cavsim preset full", "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}
    record.update(_versions())
    record["sha256"] = digests
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
