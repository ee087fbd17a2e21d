"""Regenerate the stored seed-0 references under bench/refs/seed0.

    PYTHONPATH=src python3 bench/make_refs.py

Each file holds the independent backend's records (t, C_AF1, C_AF2, C_F1F2,
purity) at every sample: dense for fig6-branch and oracle-a0.5, branch for
dense-a2.  Values are rounded to 13 significant digits, far inside the check
tolerances.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import REF_DIR, WORKLOADS  # noqa: E402

SEED = 0
SIGNIFICANT = 13


def main() -> None:
    out_dir = REF_DIR / f"seed{SEED}"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("fig6-branch", "dense-a2", "oracle-a0.5"):
        workload = WORKLOADS[name](SEED, False, Path("."))
        refs = workload.compute_reference(stride=1)
        for ref in refs:
            ref["rows"] = [[float(f"{v:.{SIGNIFICANT}g}") for v in row] for row in ref["rows"]]
        doc = {"workload": name, "seed": SEED, "trajectories": refs}
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        print(path)


if __name__ == "__main__":
    main()
