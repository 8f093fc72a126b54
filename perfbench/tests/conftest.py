import sys
from pathlib import Path

# the benchmark's modules import each other by bare name, as they do
# when run as scripts from the benchmark directory
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
