"""CLI surface: flags, CSV stability, exit codes, config files."""

import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aqds
from aqds.cli import EXIT_BOUND, EXIT_CONFIG, EXIT_OK, EXIT_USAGE, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSignRound:
    def test_outcomes_and_accounting(self, capsys):
        code, out = run_cli(capsys, "sign-round", "--receivers", "6",
                            "--message-bytes", "1K", "--epsilon", "1e-10",
                            "--seed", "1")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "receiver,outcome,n,bits_per_link"
        assert len(lines) == 7
        assert all(line.endswith(",accepted,48,144") for line in lines[1:])

    def test_paper_size_message(self, capsys):
        # the paper's budget point: a 1 MB (2^23-bit) message at eps = 1e-20
        code, out = run_cli(capsys, "sign-round", "--message-bytes", "1M",
                            "--epsilon", "1e-20", "--receivers", "1")
        assert code == EXIT_OK
        assert out.splitlines() == ["receiver,outcome,n,bits_per_link",
                                    "r1,accepted,91,273"]

    def test_seed_repeat_identical_bytes(self, capsys, tmp_path):
        t1 = tmp_path / "a.log"
        t2 = tmp_path / "b.log"
        _, out1 = run_cli(capsys, "sign-round", "--seed", "42",
                          "--transcript", str(t1))
        _, out2 = run_cli(capsys, "sign-round", "--seed", "42",
                          "--transcript", str(t2))
        assert out1 == out2
        assert t1.read_bytes() == t2.read_bytes()

    def test_timeout_script(self, capsys, tmp_path):
        script = tmp_path / "script.ini"
        script.write_text("[rule:slow]\nkind = forward\nsender = r2\n"
                          "action = delay\ndelta = 50\n")
        code, out = run_cli(capsys, "sign-round", "--receivers", "3",
                            "--script", str(script))
        assert code == EXIT_OK
        assert out.count("timed-out") == 1

    def test_bad_epsilon_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sign-round", "--epsilon", "1.5"])
        assert exc.value.code == 2

    def test_malformed_script_is_config_error(self, capsys, tmp_path):
        script = tmp_path / "script.ini"
        script.write_text("[rule:bad]\naction = nonsense\n")
        code, _ = run_cli(capsys, "sign-round", "--script", str(script))
        assert code == EXIT_CONFIG

    def test_table_format(self, capsys):
        code, out = run_cli(capsys, "sign-round", "--format", "table",
                            "--receivers", "2")
        assert code == EXIT_OK
        assert out.splitlines()[0].split() == ["receiver", "outcome", "n",
                                               "bits_per_link"]


class TestAttack:
    def test_all_suites_pass_at_defaults(self, capsys):
        code, out = run_cli(capsys, "attack", "--trials", "800", "--seed", "3")
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert out.count("pass") == 4

    def test_robustness_zero_successes(self, capsys):
        code, out = run_cli(capsys, "attack", "--suite", "robustness",
                            "--trials", "200")
        assert code == EXIT_OK
        row = out.strip().splitlines()[1].split(",")
        assert row[5] == "0"  # successes column

    def test_forgery_bound_column(self, capsys):
        code, out = run_cli(capsys, "attack", "--suite", "forgery", "--n", "8",
                            "--m-bits", "16", "--trials", "500")
        assert code == EXIT_OK
        known = next(line for line in out.splitlines()
                     if line.startswith("forgery,known-signature"))
        assert known.split(",")[7] == "0.125"  # m / 2^(n-1)

    def test_deterministic_output(self, capsys):
        args = ("attack", "--trials", "300", "--seed", "11")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_bound_violation_exit_code(self, capsys, monkeypatch):
        from aqds import adversary
        monkeypatch.setattr(
            "aqds.cli.adversary.forgery_blind",
            lambda n, trials, rng, m_bits: adversary.AttackResult(
                trials, trials, bound=2.0 ** -n))
        code, out = run_cli(capsys, "attack", "--suite", "forgery",
                            "--trials", "100")
        assert code == EXIT_BOUND
        assert "FAIL" in out


class TestConsumption:
    def test_spot_rows_present(self, capsys):
        code, out = run_cli(capsys, "consumption",
                            "--epsilon", "1e-14",
                            "--receivers", "8,10",
                            "--message-bytes", "1K,1M")
        assert code == EXIT_OK
        assert "1024,1e-14,10,2013" in out
        assert "1048576,1e-14,8,1917" in out

    def test_monotone_in_message_length(self, capsys):
        _, out = run_cli(capsys, "consumption", "--epsilon", "1e-10",
                         "--receivers", "6", "--message-bytes", "1,1K,1M")
        bits = [int(line.split(",")[3]) for line in out.strip().splitlines()[1:]]
        assert bits == sorted(bits)


class TestCurves:
    def test_rate_curve(self, capsys):
        code, out = run_cli(capsys, "time-curve", "--distance-km", "0,100,200")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "distance_km,rate_bps,seconds"
        rates = [float(line.split(",")[1]) for line in lines[1:]]
        assert rates == sorted(rates, reverse=True)

    def test_zero_distance_row_is_minimum_time(self, capsys):
        _, out = run_cli(capsys, "time-curve", "--distance-km", "0:200:50",
                         "--message-bytes", "1M", "--epsilon", "1e-20")
        seconds = [float(line.split(",")[2])
                   for line in out.strip().splitlines()[1:]]
        assert seconds[0] == min(seconds)
        assert seconds == sorted(seconds)

    def test_time_curve_band_and_infeasible_flag(self, capsys):
        code, out = run_cli(capsys, "time-curve",
                            "--distance-km", "0,360,2000",
                            "--message-bytes", "1M", "--epsilon", "1e-20")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        by_distance = {line.split(",")[0]: line.split(",")[2]
                       for line in lines[1:]}
        assert 3.3e2 <= float(by_distance["360"]) <= 3e3
        assert by_distance["2000"] == "inf"

    def test_one_byte_curve_below_one_megabyte_curve(self, capsys):
        _, small = run_cli(capsys, "time-curve", "--distance-km", "0,100,200",
                           "--message-bytes", "1", "--epsilon", "1e-20")
        _, big = run_cli(capsys, "time-curve", "--distance-km", "0,100,200",
                         "--message-bytes", "1M", "--epsilon", "1e-20")
        for s, b in zip(small.strip().splitlines()[1:],
                        big.strip().splitlines()[1:]):
            assert float(s.split(",")[2]) < float(b.split(",")[2])

    def test_time_curve_golden(self, capsys):
        # 51 rows at 1 MB, eps = 1e-20; from 500 km on the secure rate is 0
        golden = Path(__file__).parent / "data" / "golden_time_curve.csv"
        assert run_cli(capsys, "time-curve", "--distance-km", "0:1000:20",
                       "--message-bytes", "1M", "--epsilon", "1e-20",
                       ) == (EXIT_OK, golden.read_text())


class TestScenario:
    def test_shipped_eight_user_values(self, capsys):
        code, out = run_cli(capsys, "scenario")
        assert code == EXIT_OK
        assert "laboratory,1024,1e-10,AI,7140816,144,49589" in out
        assert "metropolitan,1024,1e-10,AI,901,144,6" in out

    def test_doubling_keys_roughly_doubles_rounds(self, capsys, tmp_path):
        keys = tmp_path / "keys.ini"
        keys.write_text("[custom]\narbitrator-link = AI\nAB = 2000\nAI = 1440\n")
        _, out1 = run_cli(capsys, "scenario", "--keys", str(keys))
        keys.write_text("[custom]\narbitrator-link = AI\nAB = 4000\nAI = 2880\n")
        _, out2 = run_cli(capsys, "scenario", "--keys", str(keys))
        rounds1 = int(out1.strip().splitlines()[1].split(",")[-1])
        rounds2 = int(out2.strip().splitlines()[1].split(",")[-1])
        assert rounds2 == 2 * rounds1

    def test_missing_arbitrator_link_is_config_error(self, capsys, tmp_path):
        keys = tmp_path / "keys.ini"
        keys.write_text("[custom]\nAB = 2000\n")
        code, _ = run_cli(capsys, "scenario", "--keys", str(keys))
        assert code == EXIT_CONFIG


COMPARISON_CSV = """\
scheme,k,m_bits,eps_f,total_kbit,source
Amiri et al. 2016 (unconditionally secure signatures),7,8,1e-10,21.888,literature
Pelet et al. 2022 (eight-user network signatures),7,8,1e-10,35.898,literature
Kiktenko et al. 2022 (QKD-network multiparty signatures),4,8388608,1e-10,279.400,literature
"extended three-party, fixed trusted party",7,8,1e-10,1.596,computed
"extended three-party, fixed trusted party",4,8388608,1e-10,1.392,computed
arbitrated multi-receiver (this package),7,8,1e-10,0.912,computed
arbitrated multi-receiver (this package),4,8388608,1e-10,0.870,computed
"""


class TestComparison:
    def test_csv_bytes(self, capsys):
        assert run_cli(capsys, "comparison") == (EXIT_OK, COMPARISON_CSV)

    def test_table_lists_every_row(self, capsys):
        code, out = run_cli(capsys, "comparison", "--format", "table")
        assert code == EXIT_OK
        rows = out.splitlines()[1:]
        schemes = [line.rsplit(",", 5)[0].strip('"')
                   for line in COMPARISON_CSV.splitlines()[1:]]
        assert len(rows) == len(schemes) == 7
        assert all(row.startswith(scheme) for row, scheme in zip(rows, schemes))


class TestOutputHandling:
    def test_output_file_and_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("AQDS_OUTPUT_DIR", str(tmp_path))
        code, out = run_cli(capsys, "consumption", "--output", "sweep.csv")
        assert code == EXIT_OK
        assert out == ""
        assert (tmp_path / "sweep.csv").exists()

    def test_transcript_and_output_resolve_to_one_file(self, capsys, tmp_path,
                                                       monkeypatch):
        # AQDS_OUTPUT_DIR puts the relative --output where --transcript points
        monkeypatch.setenv("AQDS_OUTPUT_DIR", str(tmp_path))
        code = main(["sign-round", "--output", "round.txt",
                     "--transcript", str(tmp_path / "sub" / ".." / "round.txt")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("aqds: bad --transcript: ")
        assert list(tmp_path.iterdir()) == []
        assert main(["sign-round", "--output", "round.csv",
                     "--transcript", "round.txt"]) == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == ["round.csv", "round.txt"]

    def test_unknown_flag_usage_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["consumption", "--frobnicate"])
        assert exc.value.code == 2

    # the planners draw nothing, their source defaults are Table 1, the
    # stored scenarios come from --keys or the eight-user network, and the
    # source parameters come from --params alone
    @pytest.mark.parametrize("argv", [["consumption", "--seed", "1"],
                                      ["time-curve", "--preset", "table1"],
                                      ["scenario", "--name", "eight-user"],
                                      ["time-curve", "--q-sift", "0.4"]])
    def test_planners_take_no_seed_preset_or_name(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


NO_HEADER = "delta = abc\n"

# (argv, config file text or None, substrings the one error line must hold);
# "{cfg}" in argv is the written config file
MALFORMED = [
    (["sign-round", "--script", "{cfg}"], "[rule:a]\naction = delay\ndelta = abc\n",
     ["'delta'"]),
    (["sign-round", "--script", "{cfg}"], "[rule:a]\naction = tamper\npositions = 1, x\n",
     ["'positions'"]),
    (["sign-round", "--script", "{cfg}"], NO_HEADER, []),
    (["sign-round", "--script", "{cfg}"], "[rule:a]\naction = replace\npayload-hex = 00\n",
     ["replace payload"]),
    (["scenario", "--keys", "{cfg}"], "[lab]\nAI = lots\n", ["'AI'"]),
    (["scenario", "--keys", "{cfg}"], NO_HEADER, []),
    (["time-curve", "--params", "{cfg}"], "[source]\nq-sift = 7\n", ["q_sift"]),
    (["time-curve", "--params", "{cfg}"], "[other]\nq-sift = 0.4\n", ["[source]"]),
    (["time-curve", "--params", "{cfg}"], NO_HEADER, []),
    (["time-curve", "--params", "{cfg}"], "[source]\nq-sift = 7\nf-ec = 0.5\n",
     ["[source]", "q_sift", "f_ec"]),
    (["time-curve", "--params", "{cfg}"], "[source]\nf-ec = 0.5\n", ["[source]", "f_ec"]),
    (["time-curve", "--distance-km=-50"], None, ["--distance-km"]),
    (["sign-round", "--receivers", "0"], None, ["--receivers"]),
    (["sign-round", "--receivers", "-2"], None, ["--receivers"]),
    (["sign-round", "--deadline", "0"], None, ["--deadline"]),
    # checked before the message is built: 1G would be 8 Gbit
    (["sign-round", "--message-bytes", "1G"], None, ["--message-bytes", "16M"]),
    (["sign-round", "--message-bytes", "16385K"], None, ["--message-bytes", "16777216"]),
    (["attack", "--n", "1", "--suite", "forgery"], None, ["--n"]),
    (["consumption", "--receivers=-1"], None, ["--receivers"]),
    # checked before any suite runs: 2^(n-1) alone may exhaust memory
    (["attack", "--suite", "robustness", "--n", "1099511627776", "--m-bits", "64",
      "--trials", "0"], None, ["--n", "2048"]),
    (["attack", "--suite", "forgery", "--n", "2", "--m-bits", "1" + "0" * 320,
      "--trials", "0"], None, ["--m-bits", "134217728"]),
    # m > 2^(n-1): the guess strategy needs more distinct irreducibles than
    # exist (these never returned), or the bound exceeds 1 (m = 16 crashed)
    *((["attack", "--suite", "forgery", "--n", n, "--m-bits", m, "--trials", "1"],
       None, ["--m-bits", "m_bits <= 2^(n-1)"])
      for n, m in (("2", "5"), ("3", "10"), ("4", "17"), ("8", "256"), ("4", "16"))),
    # checked before any key is drawn: a round's memory is linear in k
    (["sign-round", "--receivers", "10001"], None, ["--receivers", "10000"]),
    (["attack", "--suite", "robustness", "--receivers", "10001", "--trials", "0"],
     None, ["--receivers", "10000"]),
    (["attack", "--suite", "repudiation", "--receivers", "10001", "--trials", "0"],
     None, ["--receivers", "10000"]),
    (["attack", "--suite", "forgery", "--n", "64", "--m-bits", "4294967296",
      "--trials", "1"], None, ["--m-bits", "134217728"]),
    # checked before any suite runs: nothing else bounds the loop
    (["attack", "--trials", "10000001"], None, ["--trials", "10000000"]),
    # the transcript would overwrite the result table
    (["sign-round", "--output", "{cfg}", "--transcript", "{cfg}"], None,
     ["bad --transcript", "--output"]),
    (["scenario", "--keys", "{cfg}"], "[s]\nAI = 1000\nA1 = -5\n",
     ["[s]", "'A1'", "cannot be negative"]),
    (["time-curve", "--params", "{cfg}"], "[source]\nalpha-db-per-km = nan\n",
     ["[source]", "alpha_db_per_km", "finite"]),
    (["time-curve", "--params", "{cfg}"], "[source]\nbrightness = inf\n",
     ["[source]", "brightness", "finite"]),
    (["time-curve", "--params", "{cfg}"], "[source]\neta-tcc = 0.7\nt-delta = 5e-10\n",
     ["[source]", "eta_tcc", "t_delta"]),
]


# argv values for the planners, which only do arithmetic on what they are given
INT_TEXT = st.one_of(
    st.integers(-3, 100).map(str), st.integers(-10**40, 10**40).map(str),
    st.sampled_from(["1" + "0" * 400, "1e3", "0x10", "1_000", "", " ", "٣"]))
FLOAT_TEXT = st.one_of(
    st.floats(0, 1).map(repr), st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "5e-324", "1e-320", "1e308", "-0.0",
                     "1e400"]))
SIZE_TEXT = st.tuples(INT_TEXT, st.sampled_from(["", "K", "M", "G", "k", "g", "T"])).map(
    "".join)
RANGE_TEXT = st.lists(FLOAT_TEXT, min_size=3, max_size=3).map(":".join)
CURVE_FLAGS = {"--distance-km": st.one_of(RANGE_TEXT, FLOAT_TEXT),
               "--message-bytes": SIZE_TEXT, "--epsilon": FLOAT_TEXT}
PLANNER_FLAGS = {
    "consumption": {"--epsilon": FLOAT_TEXT, "--receivers": INT_TEXT,
                    "--message-bytes": SIZE_TEXT,
                    "--format": st.sampled_from(["csv", "table", "tsv"])},
    "time-curve": CURVE_FLAGS,
    "scenario": {"--message-bytes": SIZE_TEXT, "--epsilon": FLOAT_TEXT},
}


@st.composite
def planner_argv(draw):
    command = draw(st.sampled_from(sorted(PLANNER_FLAGS)))
    flags = PLANNER_FLAGS[command]
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=4)):
        # a typed value, a comma list of them, or random text
        typed = flags[flag]
        value = draw(st.one_of(typed, typed,
                               st.lists(typed, min_size=2, max_size=3).map(",".join),
                               st.text(max_size=8)))
        argv.append(f"{flag}={value}")
    return argv


def _runs_no_trial(text):
    try:
        return int(text) <= 0
    except ValueError:
        return True


# attack argv values; --trials is always given and never positive, so every
# check runs but no trial does (the default 5000 trials at n = 2048 take hours)
ATTACK_FLAGS = {"--suite": st.sampled_from(["robustness", "forgery", "repudiation",
                                            "all", "collision"]),
                "--n": INT_TEXT, "--m-bits": INT_TEXT, "--receivers": INT_TEXT}
TRIALS_TEXT = st.one_of(st.just("0"), st.integers(-10**40, -1).map(str),
                        st.text(max_size=8).filter(_runs_no_trial))


@st.composite
def attack_argv(draw):
    return ["attack", f"--trials={draw(TRIALS_TEXT)}",
            *(f"{flag}={draw(value)}" for flag, value in ATTACK_FLAGS.items())]


def _small_or_refused(limit, top):
    """Int text at most ``limit``, zero, negative, junk, or above ``top``."""
    return st.one_of(st.integers(-3, limit).map(str),
                     st.integers(-10**40, -1).map(str),
                     st.integers(top + 1, 10**40).map(str),
                     st.sampled_from(["", " ", "1e3", "0x10", "abc", "٣"]))


# sign-round argv values; message size and receiver count are drawn only where
# a round stays small or the argv is refused before the round, and epsilon
# only from 1e-30 up (a subnormal epsilon makes n ~ 1084, a 3 s round)
SIGN_ROUND_FLAGS = {
    "--message-bytes": st.one_of(
        _small_or_refused(64, 16 << 20),
        st.sampled_from(["16385K", "17M", "1G", "2T", "-1K", "0M"])),
    "--receivers": _small_or_refused(8, 10_000),
    "--epsilon": st.one_of(
        st.floats(1e-30, 1).map(repr),
        st.sampled_from(["0", "1", "-0.5", "1.5", "nan", "inf", "-inf", "", "x"])),
    "--deadline": INT_TEXT,
    "--seed": INT_TEXT,
    "--format": st.sampled_from(["csv", "table", "tsv"]),
}


@st.composite
def sign_round_argv(draw):
    return ["sign-round", *(f"{flag}={draw(value)}"
                            for flag, value in SIGN_ROUND_FLAGS.items())]


def assert_contract_code(argv):
    """``main(argv)`` in-process exits 0, 2, 3 or 4 and prints no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_BOUND, EXIT_CONFIG), err.getvalue()
    assert "Traceback" not in err.getvalue()


def distances(spec):
    return build_parser().parse_args(["time-curve", "--distance-km", spec]).distance_km


def run_process(argv):
    """``python -m aqds.cli *argv`` in a fresh interpreter, output captured."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (
                   str(Path(aqds.__file__).parent.parent),
                   os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-m", "aqds.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


class TestMalformedInput:
    @pytest.mark.parametrize("argv, text, names", MALFORMED)
    def test_exits_4_with_one_line_and_no_traceback(self, tmp_path, argv, text,
                                                    names):
        cfg = tmp_path / "bad.ini"
        if text is not None:
            cfg.write_text(text)
            names = [str(cfg), *names]
        proc = run_process([a.replace("{cfg}", str(cfg)) for a in argv])
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("aqds: ")
        assert proc.stderr.count("\n") == 1
        for name in names:
            assert name in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv", [
        ["comparison", "--output", "{file}/out.csv"],
        ["comparison", "--output", "{dir}"],
        ["sign-round", "--receivers", "1", "--transcript", "{file}/round.txt"],
        ["sign-round", "--receivers", "1", "--transcript", "{dir}"],
        # a writable --output is not written when --transcript is not
        ["sign-round", "--receivers", "1", "--output", "{dir}/table.csv",
         "--transcript", "{dir}"],
    ])
    def test_unwritable_output_exits_4(self, tmp_path, argv):
        # a path under a regular file, or a path that is a directory
        (tmp_path / "file").write_text("")
        argv = [a.format(file=tmp_path / "file", dir=tmp_path) for a in argv]
        proc = run_process(argv)
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr.startswith(f"aqds: cannot write {argv[-1]}: ")
        assert proc.stderr.count("\n") == 1
        # exit 4 writes nothing
        assert proc.stdout == ""
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    @settings(max_examples=300, deadline=None)
    @given(planner_argv())
    def test_planner_argv_exits_with_a_contract_code(self, argv):
        assert_contract_code(argv)

    @settings(max_examples=300, deadline=None)
    @given(attack_argv())
    # 2^(n-1) of this n does not fit in memory
    @example(["attack", "--suite=robustness", "--n=1099511627776", "--trials=0"])
    def test_attack_argv_exits_with_a_contract_code(self, argv):
        assert_contract_code(argv)

    @settings(max_examples=200, deadline=None)
    @given(sign_round_argv())
    def test_sign_round_argv_exits_with_a_contract_code(self, argv):
        assert_contract_code(argv)

    def test_no_signal_source_exits_4(self, capsys, tmp_path):
        # a source with neither pairs nor dark counts has no coincidences,
        # so its error rate is undefined at every distance
        cfg = tmp_path / "dark.ini"
        cfg.write_text("[source]\nbrightness = 0\ndark-count = 0\n")
        assert main(["time-curve", "--params", str(cfg)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "aqds: no coincidences; QBER undefined\n"

    @pytest.mark.parametrize("argv", [
        ["consumption", "--epsilon", "1e-320"],  # subnormal: n from the exact bound
        # the bound m/2^(n-1) is exact; only its CSV rendering underflows to 0
        ["attack", "--suite", "forgery", "--n", "2000", "--m-bits", "4000",
         "--trials", "0"],
        ["attack", "--suite", "forgery", "--n", "8", "--m-bits", "128",
         "--trials", "1"],  # bound m/2^(n-1) is exactly 1
        ["attack", "--suite", "robustness", "--n", "2000", "--m-bits", "4000",
         "--trials", "0"],
    ])
    def test_extreme_values_exit_0(self, argv):
        proc = run_process(argv)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.count("\n") > 1

    @pytest.mark.parametrize("spec", ["0:inf:1", "0:nan:1", "-inf:0:1", "0:1:1e-12"])
    def test_unbounded_range_is_usage_error(self, capsys, spec):
        with pytest.raises(SystemExit) as exc:
            main(["time-curve", "--distance-km", spec])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "argument --distance-km" in err.splitlines()[-1]

    @pytest.mark.parametrize("argv", [
        ["consumption", "--receivers", ","],
        ["consumption", "--epsilon", ""],
        ["consumption", "--message-bytes", ",,"],
        ["time-curve", "--distance-km", ","],
    ], ids=["receivers", "epsilon", "message-bytes", "distance-km"])
    def test_empty_comma_list_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert f"argument {argv[1]}" in captured.err.splitlines()[-1]

    @pytest.mark.parametrize("spec, count", [("1e-9:2e-9:1e-10", 11),
                                             ("0:1e-8:1e-9", 11)])
    def test_tiny_range_stops_at_stop(self, spec, count):
        points = distances(spec)
        assert len(points) == count
        assert points == sorted(set(points))
        assert points[-1] == pytest.approx(float(spec.split(":")[1]))

    @given(st.floats(0, 1e3), st.floats(1e-3, 1e2), st.floats(0, 5000))
    def test_range_points(self, start, step, ratio):
        stop = start + ratio * step
        points = distances(f"{start!r}:{stop!r}:{step!r}")
        span = (stop - start) / step
        assert points[0] == start
        assert all(a < b for a, b in zip(points, points[1:]))
        assert points[-1] <= stop + 1e-9 * step  # stop within tolerance counts
        if abs(span - round(span)) > 1e-9:
            assert len(points) == math.floor(span) + 1
            assert points[-1] <= stop

    def test_range_below_float_spacing_has_one_point(self, capsys):
        code, out = run_cli(capsys, "time-curve", "--distance-km", "1e20:1e20:1")
        assert code == EXIT_OK
        assert out.splitlines()[1:] == ["1e+20,0,inf"]
