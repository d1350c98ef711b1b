"""The package namespace: which layers run when, and what each public name is."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import partmaps

SRC = str(Path(__file__).resolve().parent.parent / "src")

# runs in a fresh interpreter: the partmaps modules whose bodies run during
# one step, as JSON, with those of the modules json, csv and decimal that the
# step imported
STEP = """
import contextlib, io, json, os, sys
sys.path.insert(0, {src!r})
ran = []

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_name == "<module>":
        folder, name = os.path.split(code.co_filename)
        if os.path.basename(folder) == "partmaps":
            ran.append("partmaps" + ("" if name == "__init__.py" else "." + name[:-3]))

before = set(sys.modules)
sys.setprofile(profile)
{step}
sys.setprofile(None)
print(json.dumps([ran, sorted({{"json", "csv", "decimal"}} & set(sys.modules) - before)]), file=sys.stderr)
"""

MAIN = """
import partmaps.cli
with contextlib.redirect_stdout(io.StringIO()):
    partmaps.cli.main({argv!r})
"""

EAGER = ["partmaps", "partmaps.core", "partmaps.membership"]


def fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter with this checkout's package; its stderr."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


@pytest.mark.parametrize(
    "step, runs",
    [
        ("import partmaps", EAGER),
        ("import partmaps.cli", EAGER + ["partmaps.cli"]),
        (
            MAIN.format(argv=["check", "-p", "0,1|2", "-f", "2,2,0", "--predicate", "sigma"]),
            EAGER + ["partmaps.cli"],
        ),
        (
            MAIN.format(argv=["count", "--profile", "2:2", "--set", "S"]),
            EAGER + ["partmaps.cli", "partmaps.counting"],
        ),
        (
            MAIN.format(argv=["verify", "--n-max", "1"]),
            EAGER
            + [
                "partmaps.cli",
                "partmaps.verification",
                "partmaps.counting",
                "partmaps.cycles",
                "partmaps.enumeration",
            ],
        ),
    ],
    ids=["import", "import-cli", "check", "count", "verify"],
)
def test_a_step_runs_only_the_layers_it_uses(step, runs):
    ran, formats = json.loads(fresh(STEP.format(src=SRC, step=step)))
    assert ran == runs
    assert formats == []  # a call printing lines of short ints loads none of them


def test_only_an_answer_too_long_for_str_loads_decimal():
    # str() writes every answer of at most 4300 digits, the default limit;
    # T on 3:200, 3:970 and 3:1000 has 747, 4286 and 4432 digits
    for profile, loaded_by_it in [("3:200", []), ("3:970", []), ("3:1000", ["decimal"])]:
        step = MAIN.format(argv=["count", "--profile", profile, "--set", "T"])
        ran, loaded = json.loads(fresh(STEP.format(src=SRC, step=step)))
        assert ran == EAGER + ["partmaps.cli", "partmaps.counting"]
        assert loaded == loaded_by_it, profile


def test_every_public_name_is_its_home_modules_object():
    assert len(set(partmaps.__all__)) == len(partmaps.__all__)
    for home, names in partmaps._EXPORTS.items():
        module = sys.modules[f"partmaps.{home}"]
        for name in names:
            assert getattr(partmaps, name) is getattr(module, name), name


def test_star_import_and_dir_cover_all_before_any_layer_runs():
    got = fresh(
        f"""
import sys
sys.path.insert(0, {SRC!r})
import partmaps
listed = dir(partmaps)
namespace = {{}}
exec("from partmaps import *", namespace)
print(sorted(set(partmaps.__all__) - set(listed)), sorted(set(partmaps.__all__) - set(namespace)),
      file=sys.stderr)
"""
    )
    assert got == "[] []\n"


def test_a_name_wrapped_in_its_home_module_leaves_the_package_the_original():
    # as a tracer does: wrap the home module's name before the package name
    # is first read, then restore it; the package must not keep the wrapper
    got = fresh(
        f"""
import sys
sys.path.insert(0, {SRC!r})
import partmaps
home = sys.modules["partmaps.enumeration"]
original = home.iter_t
home.iter_t = lambda *args: original(*args)
first = partmaps.iter_t
home.iter_t = original
print(first is original, partmaps.iter_t is original, file=sys.stderr)
"""
    )
    assert got == "True True\n"


def test_threads_first_touching_lazy_names_see_whole_layers():
    got = fresh(
        f"""
import sys, threading
sys.path.insert(0, {SRC!r})
import partmaps

p = partmaps.parse_partition("0,1|2")
READS = [
    lambda: partmaps.count_t(partmaps.profile_of(p)),
    lambda: len(list(partmaps.iter_t(p))),
    lambda: len(partmaps.enumeration.enumerate_sigma(p)),
    lambda: partmaps.decompose(partmaps.parse_transformation("1,2,0")).cycles,
    lambda: partmaps.cycles.find_preserved_partition(partmaps.parse_transformation("1,0,2")) is None,
    lambda: [r.passed for r in partmaps.verification.run_verification(1)],
    lambda: len(partmaps.chi_classes(p)),
    lambda: partmaps.counting.count_units(partmaps.profile_of(p)),
]
THREADS = 16
barrier = threading.Barrier(THREADS)
results = [None] * THREADS
errors = []

def work(i):
    try:
        barrier.wait(timeout=30)
        start = i % len(READS)  # each thread starts on another layer
        results[i] = {{k: READS[k]() for k in [*range(start, len(READS)), *range(start)]}}
    except BaseException as exc:
        errors.append(repr(exc))

sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=work, args=(i,)) for i in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
finally:
    sys.setswitchinterval(0.005)
alive = sum(t.is_alive() for t in threads)
print(alive, errors, all(r == results[0] for r in results), file=sys.stderr)
"""
    )
    assert got == "0 [] True\n"
