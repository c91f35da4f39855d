"""Set-up work of a workload, timed by run.py from a fresh interpreter.

    python3 bench/setup_probe.py '<JSON list of operation argv lists>'

Imports psqm and builds every protocol and function table the
operations name, and runs no check.
"""

import json
import sys

import psqm
from psqm import bounds

for argv in json.loads(sys.argv[1]):
    opts = dict(zip(argv[1::2], argv[2::2]))
    protocol = opts.get("--protocol")
    if "--table" in opts:
        with open(opts["--table"], encoding="utf-8") as fh:
            bounds.FunctionTable.from_json(json.load(fh))
    elif argv[0] == "bound":
        bounds.dj_table(int(opts["--n"]))
    elif protocol == "sum2":
        psqm.sum2_protocol(int(opts["--k"]))
    elif protocol == "geq":
        psqm.geq_protocol(int(opts["--k"]), int(opts["--l"]))
    elif protocol == "dj":
        psqm.dj_protocol(int(opts["--n"]))
