#!/usr/bin/env python3
"""Regenerate ``perfbench/golden.json`` from the program as it is now.

Usage, from the root of a checkout::

    python3 perfbench/golden.py

Runs the full-size ``table2_cold`` sweep and one ``gym_sim`` batch at the
default seed and records every (benchmark, part) cycle count and
``stats_fingerprint``, the gym baselines, and every gym trial's cycles.  Regenerate only when
a change is meant to alter simulated behaviour, and say so in that
change; a change that claims only host speed must leave this file as it is.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import loads
from run import SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    program = loads.import_program(SRC)
    seed = loads.DEFAULT_SEED

    table2 = loads.Table2Load("full", seed, work_dir=Path(tempfile.mkdtemp()))
    table2.golden = None
    table2.setup(program)
    result = table2.run_unit()
    shutil.rmtree(table2.work_dir)
    if result.failures or table2.score(result).failed:
        print("golden: the table2 sweep failed; nothing written", file=sys.stderr)
        return 1

    gym = loads.GymLoad("full", seed)
    gym.golden = None
    gym.setup(program)
    results = gym.run_unit()
    if gym.score(results).failed:
        print("golden: the gym batch failed; nothing written", file=sys.stderr)
        return 1

    golden = {
        "seed": seed,
        "table2": {
            "trace_length": table2.trace_length,
            "rows": table2.first,
        },
        "gym": {
            "trace_length": gym.trace_length,
            "baseline": {name: b.cycles[name] for name, b in gym.baselines.items()},
            "trials": gym.cycles(results),
        },
    }
    loads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"golden: wrote {loads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
