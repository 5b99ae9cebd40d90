"""One timed set-up, in a fresh interpreter: import chrkit, then
load_program and parse_goals on every (program, goals) pair read as JSON
from stdin.  Prints {"setup_s": seconds at the reference speed of
speed.py, "wall_s": seconds}.

    python3 bench/setup_child.py SRC_DIR < pairs.json
"""
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from speed import SpeedProbe  # noqa: E402

SETUP_INTERVAL = 0.005  # a set-up takes some tens of milliseconds


def main() -> None:
    pairs = json.load(sys.stdin)
    sys.path.insert(0, sys.argv[1])
    with SpeedProbe(SETUP_INTERVAL) as probe:
        mark = probe.mark()
        t0 = time.perf_counter()
        import chrkit
        for program_text, goals_text in pairs:
            chrkit.load_program(program_text)
            chrkit.parse_goals(goals_text)
        wall = time.perf_counter() - t0
    print(json.dumps({"setup_s": probe.scaled(wall, mark), "wall_s": wall}))


if __name__ == "__main__":
    main()
