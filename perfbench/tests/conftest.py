import sys
from pathlib import Path

# the benchmark's modules and the program's sources, as run.py sees them
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))
