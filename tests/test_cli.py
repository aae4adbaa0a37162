import importlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import fadegap
from conftest import strict_json
from fadegap import ValidationError, certify, cli, multiplicative_family
from fadegap.cli import run, verify_run
from fadegap.fading_paper import LN2
from fadegap.worst_case import SWEEP_CSV_HEADER


@pytest.fixture
def two_state_json(tmp_path):
    path = tmp_path / "two_state.json"
    path.write_text(json.dumps({"gains": [4, 1], "probs": [0.5, 0.5]}))
    return str(path)


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_capacity_report(capsys, two_state_json):
    code, out, err = run_capture(capsys, ["capacity", "--input", two_state_json])
    assert code == 0
    payload = json.loads(out)
    assert payload["c_exp"] == pytest.approx(0.8369882167858357, rel=1e-12)
    assert payload["c_erg"] == pytest.approx(0.5 * math.log(10), rel=1e-12)
    assert payload["units"] == "nats"
    assert payload["chain"]["pi"] == [1, 2]
    assert payload["chain"]["breakpoints"][-1] is None
    assert payload["allocation"]["beta"] == [0.5, 1.0]
    assert payload["allocation"]["lambda"][0] == pytest.approx(4.0, rel=1e-12)


def test_capacity_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(json.dumps({"gains": [2], "probs": [1.0]}))
    )
    code, out, _ = run_capture(capsys, ["capacity"])
    assert code == 0
    assert json.loads(out)["c_erg"] == pytest.approx(math.log(3), rel=1e-12)


def test_capacity_units_bits(capsys, two_state_json):
    _, nats_out, _ = run_capture(capsys, ["capacity", "--input", two_state_json])
    _, bits_out, _ = run_capture(
        capsys, ["capacity", "--input", two_state_json, "--units", "bits"]
    )
    nats, bits = json.loads(nats_out), json.loads(bits_out)
    assert bits["units"] == "bits"
    for field in ("c_erg", "c_exp", "additive_gap", "entropy"):
        assert bits[field] == pytest.approx(nats[field] / LN2, rel=1e-15)
    assert bits["multiplicative_gap"] == nats["multiplicative_gap"]
    assert bits["lemma2_terms"] == nats["lemma2_terms"]


def test_capacity_output_is_bit_identical(capsys, two_state_json):
    _, first, _ = run_capture(capsys, ["capacity", "--input", two_state_json])
    _, second, _ = run_capture(capsys, ["capacity", "--input", two_state_json])
    assert first == second


def test_capacity_csv_format(capsys, two_state_json):
    code, out, _ = run_capture(
        capsys, ["capacity", "--input", two_state_json, "--format", "csv"]
    )
    assert code == 0
    header, row = out.strip().split("\n")
    fields = dict(zip(header.split(","), row.split(",")))
    assert float(fields["c_exp"]) == pytest.approx(0.8369882167858357, rel=1e-12)


def test_capacity_csv_header_is_fixed(capsys, tmp_path):
    # (4, 0) has a zero gain, so only it carries an epsilon_applied value
    rows = []
    for gains in ([4, 1], [4, 0]):
        path = tmp_path / "channel.json"
        path.write_text(json.dumps({"gains": gains, "probs": [0.5, 0.5]}))
        code, out, _ = run_capture(capsys, ["capacity", "--input", str(path), "--format", "csv"])
        assert code == 0
        rows.append(out.splitlines())
    header = "c_erg,c_exp,additive_gap,multiplicative_gap,entropy,epsilon_applied,units"
    assert rows[0][0] == rows[1][0] == header
    assert rows[0][1].split(",")[5] == ""
    assert float(rows[1][1].split(",")[5]) > 0


def test_validation_failures_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"gains": [4, 1], "probs": [0.5, 0.4]}))
    code, out, err = run_capture(capsys, ["capacity", "--input", str(bad)])
    assert code == 1
    assert "sum to 1" in err

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"gains": [4, 1]}))
    code, _, err = run_capture(capsys, ["capacity", "--input", str(missing)])
    assert code == 1
    assert "probs" in err

    code, _, err = run_capture(capsys, ["capacity", "--input", str(tmp_path / "none.json")])
    assert code == 1

    code, _, _ = run_capture(capsys, ["capacity", "--no-such-flag"])
    assert code == 1


@pytest.mark.parametrize("command", ["capacity", "fading-paper"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("{", "input: not valid JSON"),
        ("[1]", "input: expected a JSON object with gains and probs"),
        ('{"gains": 1, "probs": [1.0]}', "gains: must be a JSON array of numbers"),
        ('{"gains": ["a"], "probs": [1.0]}', "gains: non-numeric entry 'a'"),
        ('{"gains": [true], "probs": [1.0]}', "gains: non-numeric entry True"),
    ],
    ids=["not-json", "not-object", "not-array", "str-entry", "bool-entry"],
)
def test_malformed_input_on_stdin_exits_1(capsys, monkeypatch, command, text, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run_capture(capsys, [command])
    assert code == 1
    assert out == ""
    assert message in err
    assert "Traceback" not in err


def test_internal_consistency_failure_exits_2(capsys, two_state_json, disagreeing_closed_forms):
    code, out, err = run_capture(capsys, ["capacity", "--input", two_state_json])
    assert code == 2
    assert out == ""
    assert err.startswith("internal consistency failure: closed forms disagree")
    assert "Traceback" not in err


def test_family_emit_dist(capsys):
    code, out, _ = run_capture(
        capsys,
        ["family", "--kind", "additive", "--states", "3", "--d", "10", "--emit", "dist"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["gains"] == [1110.0, 110.0, 10.0]
    assert payload["probs"] == pytest.approx([1 / 3] * 3)


def test_family_emit_report(capsys):
    code, out, _ = run_capture(
        capsys,
        ["family", "--kind", "multiplicative", "--states", "2", "--d", "2",
         "--emit", "report"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["c_exp"] == pytest.approx(math.log(7 / 6), rel=1e-12)


def test_capacity_rejects_infinite_gain(capsys, tmp_path):
    path = tmp_path / "inf.json"
    path.write_text(json.dumps({"gains": [math.inf, 1.0], "probs": [0.5, 0.5]}))
    assert "Infinity" in path.read_text()
    code, out, err = run_capture(capsys, ["capacity", "--input", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: gains: state 1 has infinite gain")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "channel",
    [
        ((1e-300, 1e-301), (0.5, 0.5)),
        ((0.0, 1e-200), (0.5, 0.5)),
        (32, 60),
        (16, 1e4),
        (32, 1e4),
        # subnormal gains, whose inverses overflow to inf
        ((1e-300, 0.0), (1e-20, 1 - 1e-20)),
        ((1.0, 1e-320), (0.5, 0.5)),
        ((1e-320,), (1.0,)),
    ],
    ids=[
        "gains-1e-300",
        "gains-0-1e-200",
        "mult-32-60",
        "mult-16-1e4",
        "mult-32-1e4",
        "subnormal-epsilon",
        "subnormal-inactive",
        "subnormal-single",
    ],
)
def test_capacity_of_tiny_capacities_exits_0(capsys, tmp_path, channel):
    gains, probs = channel
    if isinstance(gains, int):
        # JSON carries floats, so the CLI sees the rounded family
        dist = multiplicative_family(gains, probs)
        gains, probs = map(float, dist.gains), map(float, dist.probs)
    path = tmp_path / "channel.json"
    path.write_text(json.dumps({"gains": list(gains), "probs": list(probs)}))
    code, out, err = run_capture(capsys, ["capacity", "--input", str(path)])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["c_exp"] > 0
    assert payload["multiplicative_gap"] >= 1
    # a non-finite term would be emitted as null
    assert None not in payload["lemma2_terms"] + payload["lemma3_terms"]


@pytest.mark.parametrize("k, d", [("32", "60"), ("16", "1e4"), ("32", "1e4")])
def test_family_report_beyond_60_digits_exits_0(capsys, k, d):
    argv = ["family", "--kind", "multiplicative", "--states", k, "--d", d, "--emit", "report"]
    code, out, err = run_capture(capsys, argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["c_exp"] > 0


def test_capacity_with_underflowing_zero_gain_epsilon_exits_1(capsys, tmp_path):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps({"gains": [1e-320, 0.0], "probs": [0.5, 0.5]}))
    code, out, err = run_capture(capsys, ["capacity", "--input", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: gains:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"gains": [2.0, 1.0], "probs": [1.0, 1e-300]}', "error: probs: state 2"),
        ('{"gains": [1%s, 1], "probs": [0.5, 0.5]}' % ("0" * 400), "error: gains: state 1"),
    ],
    ids=["sub-resolution-probability", "401-digit-gain"],
)
def test_capacity_of_inputs_beyond_float_resolution_exits_1(capsys, tmp_path, text, message):
    path = tmp_path / "channel.json"
    path.write_text(text)
    code, out, err = run_capture(capsys, ["capacity", "--input", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith(message)
    assert "Traceback" not in err


def test_family_invalid_d_exits_1(capsys):
    code, _, err = run_capture(
        capsys, ["family", "--kind", "additive", "--states", "5", "--d", "3"]
    )
    assert code == 1
    assert "d > max" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["family", "--kind", "multiplicative", "--states", "3", "--d", "inf"], "d must be"),
        (["sweep", "--kind", "additive", "--states", "3", "--d-values", "1e200"], "d = 1e+200"),
    ],
    ids=["family-inf", "sweep-1e200"],
)
def test_family_and_sweep_refuse_unbuildable_d_with_exit_1(capsys, argv, message):
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (1, "")
    assert message in err
    assert "Traceback" not in err


def test_sweep_stdout_and_file(capsys, tmp_path):
    code, out, _ = run_capture(
        capsys,
        ["sweep", "--kind", "additive", "--states", "8", "--d-values", "10,100"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 3

    out_path = tmp_path / "rows.csv"
    code, piped, _ = run_capture(
        capsys,
        ["sweep", "--kind", "additive", "--states", "8", "--d-values", "10,100",
         "--out", str(out_path)],
    )
    assert code == 0
    assert piped == ""
    assert out_path.read_text() == out


@pytest.mark.parametrize(
    "target", ["missing/rows.csv", ""], ids=["missing-directory", "directory"]
)
def test_sweep_to_unwritable_out_exits_1(capsys, tmp_path, target):
    argv = ["sweep", "--kind", "additive", "--states", "3", "--d-values", "10",
            "--out", str(tmp_path / target)]
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: out:")
    assert "Traceback" not in err


def test_sweep_rejects_bad_values(capsys):
    code, _, err = run_capture(
        capsys,
        ["sweep", "--kind", "additive", "--states", "8", "--d-values", "10,oops"],
    )
    assert code == 1
    assert "d-values" in err


def test_fading_paper_command(capsys, two_state_json):
    code, out, _ = run_capture(
        capsys, ["fading-paper", "--input", two_state_json, "--inr", "2.0"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["inr"] == 2.0
    assert payload["achievable_rate"] == pytest.approx(math.log(2), rel=1e-12)
    assert payload["gap_upper"] == pytest.approx(0.5 * math.log(15 / 8), rel=1e-12)
    assert payload["units"] == "nats"


@pytest.mark.parametrize("units", ["nats", "bits"])
def test_fading_paper_infinite_inr_is_null(capsys, two_state_json, units):
    code, out, _ = run_capture(
        capsys, ["fading-paper", "--input", two_state_json, "--inr", "inf", "--units", units]
    )
    assert code == 0
    payload = strict_json(out)
    assert payload["inr"] is None
    assert payload["units"] == units
    code, out, _ = run_capture(
        capsys, ["fading-paper", "--input", two_state_json, "--inr", "inf", "--format", "csv"]
    )
    assert code == 0
    assert out.splitlines()[1].startswith("inf,")


@pytest.mark.parametrize("max_states", ["4097", "10000000000"])
def test_verify_refuses_max_states_above_4096(capsys, monkeypatch, max_states):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("fadegap.cli.random_distribution", no_trial)
    code, out, err = run_capture(capsys, ["verify", "--max-states", max_states])
    assert code == 1
    assert out == ""
    assert "max-states: must be at most 4096" in err


def test_verify_run_refuses_max_states_above_4096_before_a_trial(monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("fadegap.cli.random_distribution", no_trial)
    with pytest.raises(ValidationError, match="^max-states: must be at most 4096, got 4097$"):
        verify_run(trials=1, max_states=4097)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--trials", "0"], "error: trials: must be positive, got 0\n"),
        (["--max-states", "1"], "error: max-states: must be at least 2, got 1\n"),
    ],
    ids=["trials-0", "max-states-1"],
)
def test_verify_refuses_too_few_trials_or_states(capsys, flags, message):
    code, out, err = run_capture(capsys, ["verify", *flags])
    assert code == 1
    assert out == ""
    assert err == message


def test_verify_small_run(capsys):
    code, out, _ = run_capture(
        capsys, ["verify", "--trials", "5", "--seed", "3", "--max-states", "4"]
    )
    assert code == 0
    assert "PASS oracle-certification: 5/5" in out
    assert out.strip().endswith("0 failures")


def test_verify_analyses_each_trial_once_beside_one_public_report(monkeypatch):
    # one full_analysis in verify_run, one inside its fading_paper_report
    # call, whose report comes from that analysis; the reports at inr 1 and
    # 1e6 come from verify_run's analysis, and no check evaluates a utility
    # through muf_value: the chain certificate reads only crossings
    def recording(module, name):
        """(args, result) of every call of module.name."""
        calls, fn = [], getattr(module, name)

        def wrapper(*args):
            calls.append((args, fn(*args)))
            return calls[-1][1]

        monkeypatch.setattr(module, name, wrapper)
        return calls

    analyses = recording(cli, "full_analysis")
    public = recording(fadegap.fading_paper, "full_analysis")
    reports = recording(fadegap.fading_paper, "_report_of")
    utilities = recording(fadegap.muf, "muf_value")
    assert verify_run(trials=3, seed=5)["ok"]
    assert len(analyses) == len(public) == 3
    sources = [(p, a, a) for (_, p), (_, a) in zip(public, analyses)]
    assert [id(args[0]) for args, _ in reports] == [id(x) for s in sources for x in s]
    assert len(utilities) == 0


def test_verify_and_fading_paper_call_the_names_the_module_holds(monkeypatch, two_state_json):
    # perfbench's tracer patches these two attributes of the cli module
    calls = []
    for name in ("brute_force_expected_capacity", "fading_paper_report"):
        fn = getattr(cli, name)

        def counting(*args, name=name, fn=fn):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(cli, name, counting)
    assert verify_run(trials=1)["ok"]
    assert sorted(calls) == ["brute_force_expected_capacity", "fading_paper_report"]
    assert run(["fading-paper", "--input", two_state_json]) == 0
    assert calls[2:] == ["fading_paper_report"]


def test_the_cli_serves_each_deferred_name_as_its_home_modules_object():
    for name, module in fadegap._ON_FIRST_USE.items():
        assert getattr(cli, name) is getattr(importlib.import_module(f"fadegap.{module}"), name)


def test_an_unknown_cli_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'fadegap.cli' has no attribute 'nope'$"):
        cli.nope


@pytest.mark.parametrize("nan_first", [True, False], ids=["nan-first", "nan-second"])
def test_verify_prints_a_nan_margin_as_nan(monkeypatch, nan_first):
    # max() keeps a NaN only as its first argument, so the fold must carry
    # it in either order
    margins = [certify.Margin(False, math.nan), certify.Margin(True, -1.0)]
    margins = iter(margins if nan_first else margins[::-1])
    monkeypatch.setattr(certify, "per_state_additive_terms", lambda analysis: next(margins))
    summary = verify_run(trials=2, seed=0)
    assert "FAIL per-state-additive-terms: 1/2 (worst deviation nan)" in summary["lines"]
    assert summary["failures"] == 1


def test_verify_run_is_seed_deterministic():
    a = verify_run(trials=4, seed=9, max_states=4)
    b = verify_run(trials=4, seed=9, max_states=4)
    assert a == b
    assert a["ok"]


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "golden, argv, channel",
    [
        ("capacity_two_state.json", ["capacity"], {"gains": [4, 1], "probs": [0.5, 0.5]}),
        # climbs the closed-form ladder to 480 digits
        ("capacity_tiny_gains.json", ["capacity"], {"gains": [1e-300, 1e-301], "probs": [0.5, 0.5]}),
        (
            "family_multiplicative_4_60.json",
            ["family", "--kind", "multiplicative", "--states", "4", "--d", "60", "--emit", "report"],
            None,
        ),
        # the zero-gain substitute (about 5e5) is above 1 and must not add
        # to the achievable rate
        (
            "fading_paper_zero_gain.csv",
            ["fading-paper", "--format", "csv"],
            {"gains": [1e9, 0], "probs": [0.999999, 1e-6]},
        ),
        ("capacity_zero_gain.json", ["capacity"], {"gains": [0], "probs": [1]}),
        ("fading_paper_zero_gain.json", ["fading-paper"], {"gains": [0], "probs": [1]}),
        ("capacity_single_state.json", ["capacity"], {"gains": [3], "probs": [1]}),
        ("verify_200_seed0.txt", ["verify", "--trials", "200", "--seed", "0"], None),
        (
            "verify_50_seed7_k8.txt",
            ["verify", "--trials", "50", "--seed", "7", "--max-states", "8"],
            None,
        ),
    ],
    ids=[
        "two-state",
        "tiny-gains",
        "multiplicative-family",
        "fading-paper-zero-gain-substitute",
        "capacity-degenerate",
        "fading-paper-degenerate",
        "capacity-single-state",
        "verify-200-seed0",
        "verify-50-seed7-k8",
    ],
)
def test_cli_output_matches_golden_bytes(capsys, monkeypatch, golden, argv, channel):
    # full stdout, allocation.per_state_rate included, as pinned before the
    # layer rates moved out of optimal_allocation
    if channel is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(channel)))
    code, out, _ = run_capture(capsys, argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


_CLI = "import sys; from fadegap.cli import run; sys.exit(run(sys.argv[1:]))"


@pytest.mark.parametrize(
    "argv",
    [
        ["capacity", "--format", "json"],
        ["capacity", "--format", "csv"],
        ["fading-paper"],
        ["verify", "--trials", "1"],
        ["family", "--kind", "additive", "--states", "3", "--d", "10"],
        ["sweep", "--kind", "additive", "--states", "3", "--d-values", "10,100"],
    ],
    ids=["capacity-json", "capacity-csv", "fading-paper", "verify", "family", "sweep"],
)
def test_closed_stdout_exits_1_without_a_traceback(two_state_json, argv):
    if argv[0] in ("capacity", "fading-paper"):
        argv = argv + ["--input", two_state_json]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(fadegap.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _CLI, *argv],
            stdin=subprocess.DEVNULL,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
