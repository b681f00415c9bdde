"""Regenerate the golden records of tests/golden/: one JSON file per command
of COMMANDS, holding its argv, exit code and stdout (a list of lines) from
cli.main.

    PYTHONPATH=src python tests/regen_golden.py [DIR]

writes into DIR (default tests/golden/).  test_golden.py runs every record
again and compares.  A changed record is a changed output: name each changed
command in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

from ptsphere import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

# record name -> command line: every spectrum and scan command of the
# float-spectra benchmark, then the scan and s1 row counts around --K
COMMANDS = {
    "spectrum-s1-2-3-N512": "spectrum --model s1 --a 2 --b 1 --gminus 2 --gplus 3 --N 512",
    "spectrum-s1-2-3-N256": "spectrum --model s1 --a 2 --b 1 --gminus 2 --gplus 3 --N 256",
    "spectrum-s1-3-2-N256": "spectrum --model s1 --a 2 --b 1 --gminus 3 --gplus 2 --N 256",
    "spectrum-s1-3-4-N256": "spectrum --model s1 --a 2 --b 1 --gminus 3 --gplus 4 --N 256",
    "spectrum-s1-4-3-N256": "spectrum --model s1 --a 2 --b 1 --gminus 4 --gplus 3 --N 256",
    "spectrum-morse-N256": "spectrum --model s1 --a 1 --b 1 --k1 1 --k2 1 --N 256",
    "spectrum-poschl-teller-N4096": "spectrum --model poschl_teller --gminus 2 --gplus 3 --N 4096",
    "spectrum-chi-N4096": "spectrum --model chi --ell3 2 --composite 5 --N 4096",
    "scan-lambda-x13-N1024": "scan --model lambda --lambda2 0.05:0.65:0.05 --N 1024",
    "scan-lambda": "scan --model lambda",
    "scan-lambda-csv": "scan --model lambda --format csv",
    "scan-lambda-K20-N256": "scan --model lambda --K 20 --N 256",
    "spectrum-s1-K3": "spectrum --model s1 --gminus 2 --gplus 3 --K 3",
    "spectrum-s1-N4-K20": "spectrum --model s1 --gminus 2 --gplus 3 --N 4 --K 20",
    "spectrum-s1-complex-K20": "spectrum --model s1 --a 1 --b 2 --k1 1 --k2 1/2 --K 20",
    "spectrum-poschl-teller-K3-csv":
        "spectrum --model poschl_teller --gminus 2 --gplus 3 --K 3 --format csv",
    "spectrum-degenerate": "spectrum --model degenerate --alpha 2 --q 1",
}


def run(argv) -> tuple[int, str]:
    """cli.main(argv) in this process: its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def main(dest: pathlib.Path = GOLDEN) -> None:
    dest.mkdir(parents=True, exist_ok=True)
    for name, line in COMMANDS.items():
        code, stdout = run(line.split())
        # stdout one line per entry, so a changed record diffs line by line
        record = {"argv": line.split(), "exit": code, "stdout": stdout.splitlines(keepends=True)}
        (dest / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)
