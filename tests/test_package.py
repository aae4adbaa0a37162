"""The package root: ``import fadegap`` loads the analysis pipeline only, and
every public name still resolves from it.  A float channel loads no exact
arithmetic, and an exact channel built after the import still analyses
exactly.

Each check runs in a fresh interpreter, since this process has long since
imported the rest of the package.
"""

import ast
import hashlib
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import fadegap
from conftest import BUILDERS
from fadegap import FadingDistribution, full_analysis

#: Submodules ``import fadegap`` loads; everything else waits for first use.
PIPELINE = {"errors", "channel", "muf", "allocation", "gaps"}

#: Modules the analysis pipeline must not pull in.
DEFERRED = ["fadegap.oracle", "fadegap.worst_case", "fadegap.fading_paper"]
DEFERRED += ["fadegap.certify", "fadegap.cli", "mpmath"]
#: Exact arithmetic, which a float channel never needs: ``fractions`` loads
#: ``decimal`` and ``numbers``.
DEFERRED += ["fractions", "decimal", "numbers"]

#: Modules ``fadegap.cli`` leaves to the subcommands that run them.
CLI_DEFERRED = [m for m in DEFERRED if m != "fadegap.cli"]

#: ``fadegap.__all__``, in order.
PUBLIC_NAMES = [
    "FadingDistribution",
    "PreparedChannel",
    "prepare",
    "ergodic_capacity",
    "entropy",
    "MufChain",
    "muf_value",
    "intersection",
    "build_chain",
    "dominating_muf",
    "envelope_integral",
    "PowerAllocation",
    "optimal_allocation",
    "expected_capacity",
    "closed_form_routes",
    "expected_rate_of",
    "CapacityReport",
    "Analysis",
    "analyze",
    "full_analysis",
    "additive_family",
    "multiplicative_family",
    "high_snr_instance",
    "low_snr_instance",
    "sweep",
    "sweep_to_csv",
    "OracleResult",
    "brute_force_expected_capacity",
    "FadingPaperReport",
    "fading_paper_report",
    "worst_case_fp_bracket",
    "ValidationError",
    "InternalConsistencyError",
    "__version__",
]


def fresh(code: str):
    """The JSON value a fresh interpreter prints after running code."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(fadegap.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(proc.stdout)


def test_import_loads_only_the_analysis_pipeline():
    loaded = fresh("import fadegap\nprint(json.dumps(sorted(sys.modules)))")
    package = {m.removeprefix("fadegap.") for m in loaded if m.startswith("fadegap.")}
    assert package == PIPELINE
    assert "fadegap" in loaded
    assert not set(DEFERRED) & set(loaded)


def test_import_of_the_cli_defers_the_certification_layer():
    loaded = fresh("import fadegap.cli\nprint(json.dumps(sorted(sys.modules)))")
    assert "fadegap.cli" in loaded
    assert not set(CLI_DEFERRED) & set(loaded)


def two_state_inputs(tmp_path) -> list:
    """Paths of a two-state channel with float gains and of one with int
    gains, as JSON reads them."""
    paths = []
    for name, gains in (("float", [4.0, 1.0]), ("int", [4, 1])):
        path = tmp_path / f"two_state_{name}.json"
        path.write_text(json.dumps({"gains": gains, "probs": [0.5, 0.5]}))
        paths.append(str(path))
    return paths


def test_capacity_runs_on_the_analysis_pipeline_only(tmp_path):
    codes, loaded = fresh(
        f"""
import contextlib, io
from fadegap import cli
codes = []
for path in {two_state_inputs(tmp_path)!r}:
    for units in ("nats", "bits"):
        for fmt in ("json", "csv"):
            argv = ["capacity", "--input", path, "--units", units, "--format", fmt]
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.run(argv))
print(json.dumps([codes, sorted(sys.modules)]))
"""
    )
    assert codes == [0] * 8
    assert not set(CLI_DEFERRED) & set(loaded)


def test_fading_paper_runs_without_the_worst_case_families(tmp_path):
    codes, loaded = fresh(
        f"""
import contextlib, io
from fadegap import cli
codes = []
for path in {two_state_inputs(tmp_path)!r}:
    for units in ("nats", "bits"):
        argv = ["fading-paper", "--input", path, "--inr", "1", "--units", units]
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.run(argv))
print(json.dumps([codes, sorted(sys.modules)]))
"""
    )
    assert codes == [0] * 4
    assert "fadegap.fading_paper" in loaded
    assert not (set(CLI_DEFERRED) - {"fadegap.fading_paper"}) & set(loaded)


def fresh_analysis(source: str):
    """``repr(full_analysis(...))`` of the channel that source builds, in a
    fresh interpreter that imports ``fractions`` only after ``fadegap``, and
    whether that interpreter loaded ``fractions`` at all."""
    return fresh(
        f"""
from fadegap import FadingDistribution, full_analysis
if "Fraction(" in {source!r}:
    from fractions import Fraction
text = repr(full_analysis({source}))
print(json.dumps([text, "fractions" in sys.modules]))
"""
    )


def test_float_channels_analyse_without_loading_fractions():
    # the frontier an allocation records settles the factor check of a
    # float channel on the float rung; the exact check would load fractions.
    # The ladders are high_snr_instance's, as literal floats: worst_case
    # itself imports fractions
    loaded = fresh(
        """
import random
from fadegap import FadingDistribution, analyze
from fadegap.cli import random_distribution
for k in (128, 256, 512, 1024):
    analyze(FadingDistribution(tuple(1e12 ** (1 - j / k) for j in range(k)), (1 / k,) * k))
rng = random.Random(0)
for _ in range(200):
    analyze(random_distribution(rng, 8))
print(json.dumps("fractions" in sys.modules))
"""
    )
    assert loaded is False


def test_an_exact_channel_built_after_the_import_analyses_exactly():
    # the multiplicative worst-case family at K = 3, d = 2: every utility
    # crossing meets at zero, which only exact arithmetic keeps
    source = (
        "FadingDistribution((Fraction(1, 2), Fraction(1, 6), Fraction(1, 14)),"
        " (Fraction(1, 7), Fraction(2, 7), Fraction(4, 7)))"
    )
    text, _ = fresh_analysis(source)
    analysis = full_analysis(eval(source))
    assert text == repr(analysis)
    assert analysis.chain.breakpoints[1] == 0
    assert analysis.report.boundary_breakpoints == (0.0,)
    assert analysis.allocation.beta == (0, 0, 1)
    assert all(isinstance(x, Fraction) for x in analysis.allocation.lam)


#: Channels of int gains or of mixed arithmetic, as the source that builds
#: them, with the first 16 hex digits of the sha256 of the repr of their
#: full analysis, which the package gave before it loaded exact arithmetic
#: only for exact inputs.
MIXED_CHANNELS = {
    "FadingDistribution((8, 4, 2, 1), (0.125, 0.375, 0.25, 0.25))": "cff41c7031fee34a",
    "FadingDistribution((4, 1, 0), (0.25, 0.25, 0.5))": "78c3a3983a0675e2",
    "FadingDistribution((8.0, 4.0, 2.0, 1.0),"
    " (Fraction(1, 8), Fraction(3, 8), Fraction(1, 4), Fraction(1, 4)))": "70fac18969e52d90",
}


@pytest.mark.parametrize(
    "source", MIXED_CHANNELS, ids=["int-gains", "int-gains-zero", "fraction-probs"]
)
def test_int_and_mixed_channels_keep_their_reprs(source):
    text, loaded_fractions = fresh_analysis(source)
    assert text == repr(full_analysis(eval(source)))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == MIXED_CHANNELS[source]
    # only a channel with a Fraction in it loads exact arithmetic
    assert loaded_fractions == ("Fraction(" in source)


def test_every_public_name_is_its_submodules_object():
    mismatched = fresh(
        """
import importlib
import fadegap
mismatched = []
for name in fadegap.__all__:
    value = getattr(fadegap, name)
    home = getattr(value, "__module__", None) or "fadegap"
    if getattr(importlib.import_module(home), name) is not value:
        mismatched.append(name)
print(json.dumps(mismatched))
"""
    )
    assert mismatched == []


def test_star_import_binds_every_public_name():
    missing = fresh(
        """
import fadegap
from fadegap import *
print(json.dumps([name for name in fadegap.__all__ if name not in globals()]))
"""
    )
    assert missing == []


def test_dir_lists_every_public_name():
    facts = fresh(
        """
import fadegap
print(json.dumps([sorted(set(fadegap.__all__) - set(dir(fadegap))), hasattr(fadegap, "nope")]))
"""
    )
    assert facts == [[], False]


def test_an_unknown_name_raises_the_standard_attribute_error():
    message = fresh(
        """
import fadegap
try:
    fadegap.nope
except AttributeError as exc:
    print(json.dumps(str(exc)))
"""
    )
    assert message == "module 'fadegap' has no attribute 'nope'"


def test_submodules_import_from_the_package():
    names = fresh(
        """
from fadegap import cli, fading_paper, gaps, worst_case
print(json.dumps([m.__name__ for m in (cli, fading_paper, gaps, worst_case)]))
"""
    )
    assert names == ["fadegap.cli", "fadegap.fading_paper", "fadegap.gaps", "fadegap.worst_case"]


def test_public_names_keep_their_order():
    assert fadegap.__all__ == PUBLIC_NAMES


#: The function through which the stages make their objects in one step.
MAKER = "_make"

#: The mark every pipeline object carries, the frontier an allocation
#: records beside it, and the first exact state a channel records.
MARKS = ("_source", "_frontier", "_first_exact")


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def _constructions(tree):
    """(enclosing function, what) of every construction of a pipeline object
    (a call of its class, or a call of MAKER with the class as an argument),
    every setting of a field of MARKS (a call's argument or keyword, a
    dict's key) and every read of one in a module's syntax tree; one outside
    any function is at "<module>"."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            name = _name(node.func)
            if name in BUILDERS:
                found.append((scope, name))
            if name == MAKER:
                found.extend((scope, _name(arg)) for arg in node.args if _name(arg) in BUILDERS)
            values = [getattr(arg, "value", None) for arg in node.args]
            values += [kw.arg for kw in node.keywords]
            found.extend((scope, f"sets {mark}") for mark in MARKS if mark in values)
        keys = node.keys if isinstance(node, ast.Dict) else ()
        values = [getattr(key, "value", None) for key in keys]
        found.extend((scope, f"sets {mark}") for mark in MARKS if mark in values)
        if isinstance(node, ast.Attribute) and node.attr in MARKS:
            found.append((scope, f"reads {node.attr}"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_only_the_stages_build_the_pipeline_objects():
    # a stage refuses an object its builder did not mark, so no other code
    # path of the package may construct or mark one, and only the one check
    # reads the mark; only optimal_allocation records the frontier of an
    # allocation, and only the closed forms read it; only prepare records
    # a channel's first exact state, and only the closed forms read it
    src = pathlib.Path(fadegap.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.name, scope, name) for scope, name in _constructions(tree)]
    assert found == [
        ("allocation.py", "optimal_allocation", "PowerAllocation"),
        ("allocation.py", "optimal_allocation", "sets _source"),
        ("allocation.py", "optimal_allocation", "sets _frontier"),
        ("allocation.py", "_routes", "reads _frontier"),
        ("allocation.py", "_routes", "reads _first_exact"),
        ("channel.py", "prepare", "PreparedChannel"),
        ("channel.py", "prepare", "sets _source"),
        ("channel.py", "prepare", "sets _first_exact"),
        ("errors.py", "check_built", "reads _source"),
        ("muf.py", "build_chain", "MufChain"),
        ("muf.py", "build_chain", "sets _source"),
    ]
