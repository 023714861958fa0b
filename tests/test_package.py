"""``import listfair`` defines only the numpy-free constants, every other
name is imported from its own module, and a module loads only the
modules it uses."""

from helpers import run_python

IMPORT_ONLY = """\
import sys, listfair
print(sorted(name for name in vars(listfair) if not name.startswith("_")))
print(sorted(name for name in sys.modules if name.startswith("listfair.")), "numpy" in sys.modules)
try:
    listfair.rnd
except AttributeError:
    print("no rnd")
"""


def test_package_defines_only_the_constants_and_loads_nothing():
    proc = run_python(["-c", IMPORT_ONLY])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['FIXED', 'MAX_SAMPLE_SIZE', 'THEORETICAL']", "[] False", "no rnd"]


def test_stats_loads_no_sampling():
    # bootstrap_ci draws through listfair.streams, so stats needs no sampling
    proc = run_python(["-c", "import sys, listfair.stats; print('listfair.sampling' in sys.modules)"])
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_streams_loads_no_numpy_random_and_no_other_module():
    # numpy.random loads on the first random_stream call, not on import
    code = "import sys, listfair.streams; print(sorted(m for m in sys.modules if m.startswith(('listfair', 'numpy.random'))))"
    proc = run_python(["-c", code])
    assert (proc.returncode, proc.stdout) == (0, "['listfair', 'listfair.streams']\n"), proc.stderr


def test_metrics_loads_no_dataset():
    # metrics computes on masks in memory; list files are dataset's concern
    proc = run_python(["-c", "import sys, listfair.metrics; print('listfair.dataset' in sys.modules)"])
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
