"""Per-stage wall time and peak RSS of one `hxpw certify` run.

    python bench/stages.py --h 3

runs `python -m hxpw certify --h H` in a fresh child and prints its
certificate's `timings` as one JSON object: a key per stage, in
`certify.STAGES` order, plus ``total``, each holding ``wall_s`` and
``ru_maxrss_mb``, or ``{"skipped": true}`` for a stage that did not run.
On Linux, the only platform CI and the benchmark run on, `ru_maxrss` is
in KB and a child's starts from its parent's RSS, so this script imports
`hxpw` only once the child has exited.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def stage_peaks(h):
    """The per-stage records of a `certify --h h` child's certificate."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "cert.json"
        # -m puts the working directory, src/, first on sys.path; not
        # check=True: a failed verdict exits 1 and still writes the certificate
        subprocess.run([sys.executable, "-m", "hxpw", "certify", "--h", str(h),
                        "--out", str(out)], cwd=SRC)
        timings = json.loads(out.read_text())["timings"]
    sys.path.insert(0, str(SRC))
    from hxpw.certify import STAGES

    names = [name for name, *_ in STAGES] + ["total"]
    return {name: {"wall_s": timings[f"{name}_s"], "ru_maxrss_mb": timings[f"{name}_rss_mb"]}
            if f"{name}_s" in timings else {"skipped": True} for name in names}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--h", type=int, required=True, help="certify at q = 2^h")
    print(json.dumps(stage_peaks(parser.parse_args(argv).h)))


if __name__ == "__main__":
    main()
