import pytest

from chrkit.cli import main

from conftest import PROGRAMS


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sequential_run_prints_dump(capsys):
    code, out, err = run_cli(capsys, str(PROGRAMS / "gcd.chr"),
                             "--goals", "Gcd(3),Gcd(3),Gcd(9)")
    assert code == 0
    assert out.strip() == "Gcd(3)#6"


def test_concurrent_run_with_verify(capsys):
    code, out, err = run_cli(capsys, str(PROGRAMS / "gcd.chr"),
                             "--goals", "Gcd(3),Gcd(3),Gcd(9)",
                             "--engine", "concurrent", "--workers", "4",
                             "--seed", "7", "--verify")
    assert code == 0
    assert out.strip().startswith("Gcd(3)#")
    assert "replay: PASS" in err
    assert "audit-overlap: PASS" in err


def test_oracle_enumerates_both_channel_answers(capsys):
    code, out, err = run_cli(capsys, str(PROGRAMS / "channel.chr"),
                             "--goals", "Get(m),Put(1),Get(n),Put(8)",
                             "--engine", "abstract", "--oracle")
    assert code == 0
    assert "2 final store(s)" in out
    assert "m=1" in out and "m=8" in out


def test_abstract_single_walk(capsys):
    code, out, err = run_cli(capsys, str(PROGRAMS / "gcd.chr"),
                             "--goals", "Gcd(3),Gcd(9)",
                             "--engine", "abstract", "--seed", "3")
    assert code == 0
    assert out.strip() == "Gcd(3)"


def test_empty_goals(capsys):
    code, out, err = run_cli(capsys, str(PROGRAMS / "gcd.chr"), "--goals", "")
    assert code == 0
    assert out.strip() == ""


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.chr"
    bad.write_text("r1 @ Gcd(n <=> true.")
    code, out, err = run_cli(capsys, str(bad), "--goals", "")
    assert code == 1
    assert "line 1" in err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_bad_worker_count_exits_1(capsys, workers):
    code, out, err = run_cli(capsys, str(PROGRAMS / "gcd.chr"),
                             "--goals", "Gcd(4)", "--engine", "concurrent",
                             f"--workers={workers}")
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--repeat=0", "--repeat=-1",
                                  "--max-steps=-3", "--max-steps=-1"])
@pytest.mark.parametrize("engine", ["sequential", "concurrent", "abstract"])
def test_bad_repeat_or_step_limit_exits_1(capsys, engine, flag):
    code, out, err = run_cli(capsys, str(PROGRAMS / "gcd.chr"),
                             "--goals", "Gcd(4),Gcd(6)", "--engine", engine,
                             flag)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("engine", ["sequential", "concurrent", "abstract"])
@pytest.mark.parametrize("limit,code", [("0", 1), ("1", 1), ("100", 0)])
def test_max_steps_is_honoured_by_every_engine(capsys, engine, limit, code):
    got, out, err = run_cli(capsys, str(PROGRAMS / "gcd.chr"),
                            "--goals", "Gcd(4),Gcd(6)", "--engine", engine,
                            "--max-steps", limit)
    assert got == code, (out, err)
    if limit == "0":
        assert out == ("Gcd(4)\nGcd(6)\n" if engine == "abstract" else "")


@pytest.mark.parametrize("engine,goals,code", [
    ("abstract", "Gcd(3)", 0),  # already final: no rewrite applies
    ("abstract", "", 0),
    ("abstract", "Gcd(3),Gcd(9)", 1),
    ("sequential", "", 0),
    ("concurrent", "", 0),
    # a goal engine needs a step to activate Gcd(3), so the goal is pending
    ("sequential", "Gcd(3)", 1),
])
def test_zero_step_limit_fails_only_if_work_is_left(capsys, engine, goals,
                                                    code):
    got, out, err = run_cli(capsys, str(PROGRAMS / "gcd.chr"),
                            "--goals", goals, "--engine", engine,
                            "--max-steps", "0")
    assert got == code, (out, err)


def test_atom_with_trace_delimiter_exits_1(capsys):
    code, out, err = run_cli(capsys, str(PROGRAMS / "gcd.chr"),
                             "--goals", "P('a b'),Q(1)", "--verify")
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("engine", ["sequential", "concurrent"])
@pytest.mark.parametrize("goals,prefix", [
    ("Gcd(" + "(" * 3000 + "1" + ")" * 3000 + ")", "error: line 1, col "),
    ("Gcd(" + "+".join(["1"] * 3000) + ")", "error: line 1, col "),
    ("Gcd(-99999999999999999999999)", "error: line 1, col "),
], ids=["3000-parentheses", "3000-term-chain", "below-int64"])
def test_bad_goal_exits_1_with_one_error_line(capsys, engine, goals, prefix):
    code, out, err = run_cli(capsys, str(PROGRAMS / "gcd.chr"),
                             "--goals", goals, "--engine", engine)
    assert code == 1
    assert err.startswith(prefix) and err.count("\n") == 1


def test_unwritable_trace_path_exits_1(tmp_path, capsys):
    code, out, err = run_cli(capsys, str(PROGRAMS / "gcd.chr"),
                             "--goals", "Gcd(3)",
                             "--trace", str(tmp_path / "missing" / "x"))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def test_trace_format_error_exits_1(capsys, monkeypatch):
    import chrkit.cli
    from chrkit.trace import TraceFormatError

    def broken(*args, **kwargs):
        raise TraceFormatError("malformed field 'x'")

    monkeypatch.setattr(chrkit.cli, "verify_run", broken)
    code, out, err = run_cli(capsys, str(PROGRAMS / "gcd.chr"),
                             "--goals", "Gcd(3)", "--verify")
    assert code == 1
    assert err == "error: malformed field 'x'\n"


def test_trace_file_written(tmp_path, capsys):
    path = tmp_path / "run.trace"
    code, out, err = run_cli(capsys, str(PROGRAMS / "channel.chr"),
                             "--goals", "Get(m),Put(1)",
                             "--trace", str(path))
    assert code == 0
    text = path.read_text()
    assert text.startswith("# chr-trace v1")
    assert "# status=done" in text
    assert "# final: m=1" in text


def test_repeat_reports_distinct_stores(capsys):
    code, out, err = run_cli(capsys, str(PROGRAMS / "channel.chr"),
                             "--goals", "Get(m),Put(1),Get(n),Put(8)",
                             "--engine", "concurrent", "--workers", "4",
                             "--repeat", "25", "--verify")
    assert code == 0
    assert "distinct final store(s) over 25 runs" in out


@pytest.mark.parametrize("flags,message", [
    (["--engine", "abstract", "--verify"],
     "--engine abstract does not take --verify"),
    (["--engine", "abstract", "--trace", "TRACE"],
     "--engine abstract does not take --trace"),
    (["--engine", "abstract", "--repeat", "5"],
     "--engine abstract does not take --repeat"),
    (["--oracle", "--verify"], "--oracle does not take --verify"),
    (["--oracle", "--engine", "concurrent", "--trace", "TRACE"],
     "--oracle does not take --trace"),
    (["--oracle", "--repeat", "2", "--verify"],
     "--oracle does not take --verify or --repeat"),
    (["--repeat", "2", "--trace", "TRACE"], "--repeat does not take --trace"),
    (["--engine", "concurrent", "--repeat", "2", "--verify", "--trace",
      "TRACE"], "--repeat does not take --trace"),
    (["--engine", "concurrent", "--check-invariants"],
     "--engine concurrent does not take --check-invariants"),
    (["--engine", "concurrent", "--repeat", "2", "--check-invariants"],
     "--engine concurrent does not take --check-invariants"),
    (["--engine", "abstract", "--check-invariants"],
     "--engine abstract does not take --check-invariants"),
    (["--oracle", "--check-invariants"],
     "--oracle does not take --check-invariants"),
    (["--oracle", "--max-steps", "0"], "--oracle does not take --max-steps"),
    (["--oracle", "--engine", "concurrent", "--check-invariants",
      "--max-steps", "5"],
     "--oracle does not take --check-invariants or --max-steps"),
    (["--engine", "concurrent", "--policy", "lifo"],
     "--engine concurrent does not take --policy"),
    (["--engine", "abstract", "--policy", "lifo"],
     "--engine abstract does not take --policy"),
    (["--oracle", "--policy", "lifo"], "--oracle does not take --policy"),
    (["--workers", "4"], "--engine sequential does not take --workers"),
    (["--engine", "sequential", "--workers", "2", "--verify"],
     "--engine sequential does not take --workers"),
    (["--engine", "abstract", "--workers", "4"],
     "--engine abstract does not take --workers"),
    (["--oracle", "--engine", "concurrent", "--workers", "2"],
     "--oracle does not take --workers"),
    (["--oracle", "--policy", "lifo", "--workers", "3", "--max-steps", "9"],
     "--oracle does not take --policy or --workers or --max-steps"),
])
def test_flags_the_mode_would_ignore_exit_1(tmp_path, capsys, flags, message):
    path = tmp_path / "run.trace"
    flags = [str(path) if f == "TRACE" else f for f in flags]
    code, out, err = run_cli(capsys, str(PROGRAMS / "gcd.chr"),
                             "--goals", "Gcd(4),Gcd(6)", *flags)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not path.exists()


def test_goals_file(tmp_path, capsys):
    gf = tmp_path / "goals.txt"
    gf.write_text("Gcd(3),Gcd(9)\n")
    code, out, err = run_cli(capsys, str(PROGRAMS / "gcd.chr"),
                             "--goals-file", str(gf))
    assert code == 0
    assert out.strip().startswith("Gcd(3)#")


def test_step_limit_exit_code(tmp_path, capsys):
    prog = tmp_path / "loop.chr"
    prog.write_text("r @ A <=> A.\n")
    code, out, err = run_cli(capsys, str(prog), "--goals", "A",
                             "--max-steps", "10")
    assert code == 1
    assert "step-limit" in err


def test_check_invariants_flag(capsys):
    code, out, err = run_cli(capsys, str(PROGRAMS / "mergesort.chr"),
                             "--goals", "Merge(1,2),Merge(1,1)",
                             "--check-invariants")
    assert code == 0


@pytest.mark.parametrize("flags", [["--repeat", "2"], ["--max-steps", "50"],
                                   ["--verify", "--trace", "TRACE"]])
def test_check_invariants_runs_with_sequential_flags(tmp_path, capsys, flags):
    flags = [str(tmp_path / "run.trace") if f == "TRACE" else f for f in flags]
    code, out, err = run_cli(capsys, str(PROGRAMS / "mergesort.chr"),
                             "--goals", "Merge(1,2),Merge(1,1)",
                             "--check-invariants", *flags)
    assert code == 0, err


def test_seed_env_var_default(capsys, monkeypatch):
    monkeypatch.setenv("CHR_SEED", "11")
    from chrkit.cli import build_arg_parser
    args = build_arg_parser().parse_args([str(PROGRAMS / "gcd.chr")])
    assert args.seed == 11


def test_non_integer_seed_env_var_exits_1_with_one_error_line(capsys,
                                                              monkeypatch):
    monkeypatch.setenv("CHR_SEED", "abc")
    code, out, err = run_cli(capsys, str(PROGRAMS / "gcd.chr"),
                             "--goals", "Gcd(9)")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "CHR_SEED" in err
    assert len(err.splitlines()) == 1
    code, out, err = run_cli(capsys, str(PROGRAMS / "gcd.chr"),
                             "--goals", "Gcd(9)", "--seed", "3")
    assert code == 0  # an explicit --seed does not read it
