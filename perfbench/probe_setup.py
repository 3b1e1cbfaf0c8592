"""One set-up sample for the orthocurrent benchmark.

    python3 perfbench/probe_setup.py <workload>

Prints, as one JSON object, the seconds from before `import orthocurrent`
until every field of the workload is parsed and has built its zero and
one, and the times of REFERENCE_PASSES passes of the reference loop of
calibrate.py run right after.  run.py starts this in fresh interpreters,
since set-up happens once per process.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import workloads  # noqa: E402

REFERENCE_PASSES = 5


def main() -> None:
    literals = workloads.fields(sys.argv[1])
    sys.path.insert(0, str(HERE.parent / "src"))
    start = perf_counter()
    import orthocurrent.cli  # noqa: F401
    from orthocurrent.scalars import parse_field

    for literal in literals:
        field = parse_field(literal)
        field.zero()
        field.one()
    setup_s = perf_counter() - start
    references = [calibrate.reference_s() for _ in range(REFERENCE_PASSES)]
    print(json.dumps({"setup_s": setup_s, "reference_s": references}))


if __name__ == "__main__":
    main()
