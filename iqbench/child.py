"""Fresh-process helper for the benchmark; started by run.py, not by hand.

    child.py check <config>           import iqcontrol, then `iqctl check`
    child.py pass <argv.json> <out>   run every iqctl argv list in the file
                                      and write their exit codes to <out>

Imports only the standard library before iqcontrol, so the time and
memory of a `check` child are those of the package itself.
"""

import json
import sys


def main() -> int:
    from iqcontrol.cli import main as iqctl
    if sys.argv[1] == "check":
        return iqctl(["check", sys.argv[2], "--quiet"])
    with open(sys.argv[2], encoding="utf-8") as fh:
        argvs = json.load(fh)
    codes = []
    for argv in argvs:
        try:
            codes.append(iqctl(argv))
        except (Exception, SystemExit) as exc:  # recorded as a failed config
            codes.append(f"raised {exc!r}")
    with open(sys.argv[3], "w", encoding="utf-8") as fh:
        json.dump(codes, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
