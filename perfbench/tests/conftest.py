import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for entry in (ROOT / "src", BENCH):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
