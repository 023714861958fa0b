"""``import listfair`` defines only the numpy-free constants, every other
name is imported from its own module, and a module loads only the
modules it uses. The public surface is the names without a leading
underscore; the README's "Library" section states each of them."""

import ast
import re
from pathlib import Path

from helpers import public_definitions, public_names, run_python

README = Path(__file__).resolve().parents[1] / "README.md"

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


def test_the_readme_has_one_library_entry_per_public_name():
    # a "### `module`" heading, then one "- `name...`" entry per public
    # name, in source order
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    entries = {}
    for line in section.splitlines():
        if heading := re.fullmatch(r"### `(listfair[.\w]*)`", line):
            module = entries.setdefault(heading[1], [])
        elif entry := re.match(r"- `(\w+)", line):
            module.append(entry[1])
    assert entries == public_names()


def settable_values() -> list[str]:
    """The library's settable values: every defaulted parameter of a
    public function or of a public method of a public class, and every
    field of a public class that has a default, as ``ExperimentConfig``'s
    dataclass fields do. Dunder methods such as ``__init__`` have a
    leading underscore, so they are not public."""
    values = []
    for module, nodes in public_definitions().items():
        for node in nodes:
            functions = [(node.name, node)] if isinstance(node, ast.FunctionDef) else []
            for member in node.body if isinstance(node, ast.ClassDef) else []:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    functions.append((f"{node.name}.{member.name}", member))
                elif isinstance(member, ast.AnnAssign) and member.value is not None:
                    values.append(f"{module}.{node.name}.{member.target.id}")
            for name, function in functions:
                args = function.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
                values.extend(f"{module}.{name}({arg.arg})" for arg in defaulted)
    return values


def test_the_settable_values_are_pinned():
    # a change that adds or removes a knob edits this count
    assert len(settable_values()) == 23, settable_values()
