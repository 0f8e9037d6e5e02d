import sys
from pathlib import Path

# tools/corpus.py holds the in-process CLI runner and the corpus suites.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
