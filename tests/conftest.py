import sys
import tempfile
from pathlib import Path

from hypothesis import configuration, settings

# Allow `import oracles` from any test module.
sys.path.insert(0, str(Path(__file__).resolve().parent))

# One deterministic profile for every property test: the same examples on
# every run, no per-example deadline, and no example database on disk.
settings.register_profile("uqsim", derandomize=True, database=None, deadline=None)
settings.load_profile("uqsim")
# Hypothesis still caches source constants (at collection) and Unicode
# tables in its storage directory, .hypothesis/ under the working directory
# by default; keep that cache out of the source tree.
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "uqsim-hypothesis")
