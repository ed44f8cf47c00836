import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ebs import __version__
from ebs.cli import build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSpecCommands:
    def test_parse_text(self, capsys):
        code, out, _ = run(capsys, "spec", "parse", "--spec", " C(3;2) x C(1;4)")
        assert code == 0
        assert "spec: C(3;2)xC(1;4)" in out
        assert "elements: 16" in out
        assert "idempotent: [4, 4]" in out

    def test_parse_json(self, capsys):
        code, out, _ = run(capsys, "spec", "parse", "--spec", "C(2;3)", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"spec": "C(2;3)", "arity": 1, "elements": 4,
                           "idempotent": [3]}

    def test_format(self, capsys):
        code, out, _ = run(capsys, "spec", "format", "--spec", "C( 2 ; 3 )")
        assert (code, out.strip()) == (0, "C(2;3)")

    def test_parse_error_exit_1(self, capsys):
        code, _, err = run(capsys, "spec", "parse", "--spec", "C(0;2)")
        assert code == 1
        assert "index must be >= 1" in err


class TestConstCommands:
    def test_eb_both_text(self, capsys):
        code, out, _ = run(capsys, "const", "eb", "--spec", "C(3;2)",
                           "--method", "both")
        assert code == 0
        assert "value: 4" in out and "rule: COR31_R1" in out

    def test_eb_parse_error(self, capsys):
        code, _, err = run(capsys, "const", "eb", "--spec", "C(0;2)")
        assert code == 1 and "error" in err

    def test_eb_budget_exit_2(self, capsys):
        code, _, err = run(capsys, "const", "eb", "--spec", "C(30;1)xC(1;29)",
                           "--method", "brute", "--node-budget", "100")
        assert code == 2 and "budget" in err

    def test_budget_exit_reports_progress(self, capsys):
        code, _, err = run(capsys, "const", "eb", "--spec", "C(30;1)xC(1;29)",
                           "--method", "brute", "--node-budget", "100")
        assert code == 2
        assert "nodes 101, elapsed" in err

    def test_davenport_brute(self, capsys):
        code, out, _ = run(capsys, "const", "davenport", "--group", "2,2",
                           "--method", "brute")
        assert code == 0 and "value: 3" in out

    def test_davenport_echoes_invariant_factors(self, capsys):
        code, out, _ = run(capsys, "const", "davenport", "--group", "4,6", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["invariant_factors"] == [2, 12]
        assert payload["value"] == 13

    def test_davenport_bad_group(self, capsys):
        code, _, err = run(capsys, "const", "davenport", "--group", "2,x")
        assert code == 1

    def test_lhat(self, capsys):
        code, out, _ = run(capsys, "const", "lhat", "--spec", "C(5;1)")
        assert code == 0 and "value: 3" in out

    def test_lhat_rejects_products(self, capsys):
        code, _, err = run(capsys, "const", "lhat", "--spec", "C(2;1)xC(1;2)")
        assert code == 1 and "single" in err

    def test_l_mismatch_flag_in_json(self, capsys):
        code, out, _ = run(capsys, "const", "lhat", "--spec", "C(1;5)",
                           "--method", "both", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["value"] == 1
        assert payload["flags"] == ["formula-brute-mismatch"]

    def test_json_is_single_object(self, capsys):
        code, out, _ = run(capsys, "const", "eb", "--spec", "C(1;2)xC(4;3)",
                           "--method", "both", "--json")
        payload = json.loads(out)
        assert payload["value"] == 7 and payload["upper"] == 8
        assert payload["flags"] == ["formula-refuted"]


class TestCache:
    def test_round_trip(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.json")
        code1, out1, _ = run(capsys, "const", "eb", "--spec", "C(3;2)xC(1;4)",
                             "--method", "both", "--cache", cache, "--json")
        code2, out2, _ = run(capsys, "const", "eb", "--spec", "C(3;2)xC(1;4)",
                             "--method", "both", "--cache", cache, "--json")
        assert code1 == code2 == 0
        assert json.loads(out1) == json.loads(out2)
        store = json.loads(Path(cache).read_text())
        assert "C(3;2)xC(1;4)|eb|both" in store

    def test_methods_cached_separately(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.json")
        run(capsys, "const", "eb", "--spec", "C(3;2)", "--cache", cache)
        run(capsys, "const", "eb", "--spec", "C(3;2)", "--method", "brute",
            "--cache", cache)
        store = json.loads(Path(cache).read_text())
        assert len(store) == 2

    def test_version_mismatch_recomputes(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps({
            "C(3;2)|eb|formula": {"version": "0.0.0", "result": {"value": 99}}
        }))
        code, out, _ = run(capsys, "const", "eb", "--spec", "C(3;2)",
                           "--cache", str(cache), "--json")
        assert code == 0 and json.loads(out)["value"] == 4
        assert json.loads(cache.read_text())["C(3;2)|eb|formula"]["version"] != "0.0.0"

    @pytest.mark.parametrize("entry", [{"result": 5}, {}])
    def test_current_entry_without_result_dict_recomputes(self, capsys, tmp_path, entry):
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps({"C(3;2)|eb|formula": {"version": __version__, **entry}}))
        code, out, _ = run(capsys, "const", "eb", "--spec", "C(3;2)", "--cache", str(cache))
        assert code == 0 and "value: 4" in out.splitlines()
        stored = json.loads(cache.read_text())["C(3;2)|eb|formula"]
        assert stored["version"] == __version__ and stored["result"]["value"] == 4

    def test_corrupt_cache_warns_and_continues(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        cache.write_text("not json")
        code, out, err = run(capsys, "const", "eb", "--spec", "C(3;2)",
                             "--cache", str(cache), "--json")
        assert code == 0 and json.loads(out)["value"] == 4
        assert "cache" in err

    def test_budget_degraded_result_not_cached(self, capsys, tmp_path):
        # a tiny budget leaves D(Z2+Z2+Z6) as an interval; a later call with
        # the default budget must compute the exact value, not reuse it
        cache = str(tmp_path / "cache.json")
        argv = ("const", "eb", "--spec", "C(2;2)xC(1;2)xC(1;6)", "--cache", cache,
                "--json")
        code, out, _ = run(capsys, *argv, "--node-budget", "50")
        degraded = json.loads(out)
        assert code == 0 and degraded["value"] is None
        assert degraded["flags"] == ["davenport-inexact"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["value"] == 8
        store = json.loads(Path(cache).read_text())
        assert store["C(2;2)xC(1;2)xC(1;6)|eb|formula"]["result"]["value"] == 8
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json"]

    def test_unwritable_cache_warns_and_prints(self, capsys, tmp_path):
        cache = tmp_path / "missing" / "c.json"
        code, out, err = run(capsys, "const", "eb", "--spec", "C(1;2)",
                             "--cache", str(cache), "--json")
        assert code == 0 and json.loads(out)["value"] == 2
        assert err.startswith(f"warning: could not write cache {cache}: ")
        assert ".tmp" not in err
        assert list(tmp_path.iterdir()) == []

    def test_cache_that_is_a_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "const", "eb", "--spec", "C(1;2)",
                             "--cache", str(tmp_path), "--json")
        assert code == 0 and json.loads(out)["value"] == 2
        assert "ignoring unreadable cache" in err
        assert "could not write cache" in err
        assert list(tmp_path.iterdir()) == []


class TestSeqCommand:
    def test_free_true(self, capsys, tmp_path):
        f = tmp_path / "t.seq"
        f.write_text("1\n1\n")
        code, out, _ = run(capsys, "seq", "check", "--spec", "C(2;3)",
                           "--predicate", "free", "--file", str(f))
        assert code == 0 and "result: true" in out

    def test_free_false_prints_witness(self, capsys, tmp_path):
        f = tmp_path / "t.seq"
        f.write_text("1\n1\n1\n")
        code, out, _ = run(capsys, "seq", "check", "--spec", "C(2;3)",
                           "--predicate", "free", "--file", str(f))
        assert code == 0
        assert "result: false" in out
        assert "witness:" in out
        assert out.count("\n1") >= 3

    def test_free_false_walks_once(self, capsys, tmp_path, monkeypatch):
        from ebs import sequences

        walks = []
        walk = sequences._walk
        monkeypatch.setattr(sequences, "_walk", lambda *a: walks.append(a) or walk(*a))
        f = tmp_path / "t.seq"
        f.write_text("1\n1\n1\n")
        code, out, _ = run(capsys, "seq", "check", "--spec", "C(2;3)",
                           "--predicate", "free", "--file", str(f))
        assert code == 0 and "witness:" in out and len(walks) == 1

    def test_idempotent_predicate(self, capsys, tmp_path):
        f = tmp_path / "t.seq"
        f.write_text("1\n1\n1\n")
        code, out, _ = run(capsys, "seq", "check", "--spec", "C(2;3)",
                           "--predicate", "idempotent", "--file", str(f))
        assert code == 0 and "result: true" in out

    def test_minimal_predicate_json(self, capsys, tmp_path):
        f = tmp_path / "t.seq"
        f.write_text("1\n1\n1\n1\n")
        code, out, _ = run(capsys, "seq", "check", "--spec", "C(3;2)",
                           "--predicate", "minimal", "--file", str(f), "--json")
        assert code == 0
        assert json.loads(out)["result"] is True

    def test_malformed_line_exit_1(self, capsys, tmp_path):
        f = tmp_path / "t.seq"
        f.write_text("1\n2;3\n")
        code, _, err = run(capsys, "seq", "check", "--spec", "C(2;3)",
                           "--predicate", "free", "--file", str(f))
        assert code == 1 and "line 2" in err

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "seq", "check", "--spec", "C(2;3)",
                           "--predicate", "free", "--file", str(tmp_path / "no.seq"))
        assert code == 1


class TestStructCommands:
    def test_behaving_true(self, capsys):
        code, out, _ = run(capsys, "struct", "behaving", "--ints", "1,1,2")
        assert code == 0
        assert "behaving: true" in out and "class: behaving" in out

    def test_behaving_eq_twos(self, capsys):
        code, out, _ = run(capsys, "struct", "behaving", "--ints", "2,2")
        assert code == 0
        assert "behaving: false" in out and "class: eq_twos" in out

    def test_classify_from_file(self, capsys, tmp_path):
        f = tmp_path / "t.seq"
        f.write_text("2\n2\n")
        code, out, _ = run(capsys, "struct", "classify", "--spec", "C(5;1)",
                           "--file", str(f))
        assert code == 0 and "tag: N1_TWOS_V" in out

    def test_classify_precondition_exit_1(self, capsys, tmp_path):
        f = tmp_path / "t.seq"
        f.write_text("2\n3\n")  # not idempotent-sum free over C(5;1)
        code, _, err = run(capsys, "struct", "classify", "--spec", "C(5;1)",
                           "--file", str(f))
        assert code == 1 and "free" in err

    def test_savchev_chen(self, capsys):
        code, out, _ = run(capsys, "struct", "savchev-chen", "--group", "5",
                           "--ints", "3,3,3")
        assert code == 0 and "c: 3" in out and "H: 1,1,1" in out

    def test_savchev_chen_none(self, capsys):
        code, out, _ = run(capsys, "struct", "savchev-chen", "--group", "7",
                           "--ints", "1,3")
        assert code == 0 and "result: none" in out

    def test_savchev_chen_multi_modulus_rejected(self, capsys):
        code, _, err = run(capsys, "struct", "savchev-chen", "--group", "5,7",
                           "--ints", "1")
        assert code == 1


class TestExplore:
    def test_conjecture_report(self, capsys, tmp_path):
        out_path = tmp_path / "rows.jsonl"
        code, out, _ = run(capsys, "explore", "conjecture41", "--max-k", "2",
                           "--max-n", "3", "--out", str(out_path))
        assert code == 0
        rows = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(rows) == 21
        assert out.startswith("summary:")
        assert "counterexamples=0" in out

    def test_lhat_gap_stdout(self, capsys):
        code, out, _ = run(capsys, "explore", "lhat-gap", "--max-k", "4",
                           "--max-n", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1].startswith("summary:")
        assert all(json.loads(x) for x in lines[:-1])

    def test_empty_range_empty_file(self, capsys, tmp_path):
        out_path = tmp_path / "rows.jsonl"
        code, out, _ = run(capsys, "explore", "l-gap", "--max-k", "1",
                           "--max-n", "1", "--out", str(out_path))
        assert code == 0
        assert out_path.read_text() == ""
        assert "rows=0" in out

    @pytest.mark.parametrize("kind", ["lhat-gap", "l-gap", "conjecture41"])
    def test_bad_out_path_fails_before_search(self, capsys, monkeypatch, tmp_path, kind):
        import ebs.constants
        import ebs.structure

        def searched(*args):
            raise AssertionError("searched before opening --out")

        monkeypatch.setattr(ebs.structure, "structure_gap_report", searched)
        monkeypatch.setattr(ebs.constants, "explore_conjecture", searched)
        code, out, err = run(capsys, "explore", kind, "--max-k", "3", "--max-n", "2",
                             "--out", str(tmp_path / "missing" / "rows.jsonl"))
        assert code == 1
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("kind,max_k,max_n", [
        ("conjecture41", "0", "2"), ("lhat-gap", "-1", "2"), ("l-gap", "3", "0"),
    ])
    def test_nonpositive_range_exit_1(self, capsys, tmp_path, kind, max_k, max_n):
        out_path = tmp_path / "rows.jsonl"
        code, out, err = run(capsys, "explore", kind, "--max-k", max_k, "--max-n", max_n,
                             "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err == "error: --max-k and --max-n must be positive\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("kind,module,fn,key", [
        ("lhat-gap", "structure", "structure_gap_report", "anomalies"),
        ("l-gap", "structure", "structure_gap_report", "anomalies"),
        ("conjecture41", "constants", "explore_conjecture", "soundness_bugs"),
    ])
    def test_anomaly_exits_3(self, capsys, monkeypatch, kind, module, fn, key):
        import importlib

        row = {"k": 3, "n": 2, "anomaly": True}
        monkeypatch.setattr(importlib.import_module(f"ebs.{module}"), fn,
                            lambda *args: {"rows": [row], "summary": {"rows": 1, key: 1}})
        code, out, _ = run(capsys, "explore", kind, "--max-k", "3", "--max-n", "2")
        assert code == 3
        assert json.loads(out.splitlines()[0]) == row
        assert f" {key}=1" in out.splitlines()[-1]


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "const", "eb")
        assert code == 1

    def test_bad_method_value(self, capsys):
        code, _, err = run(capsys, "const", "eb", "--spec", "C(2;2)",
                           "--method", "magic")
        assert code == 1

    def test_nonpositive_budget(self, capsys):
        for flag, value in (("--node-budget", "-5"), ("--node-budget", "0"),
                            ("--time-budget", "0")):
            code, _, err = run(capsys, "const", "eb", "--spec", "C(2;2)",
                               flag, value)
            assert code == 1, (flag, value)
            assert "budgets must be positive" in err

    def test_nonpositive_budget_names_no_threads_without_the_option(self, capsys):
        # every command that takes a budget gives the same message
        for argv in (("const", "eb", "--spec", "C(2;2)"),
                     ("const", "davenport", "--group", "2,4"),
                     ("const", "lhat", "--spec", "C(3;3)"),
                     ("const", "l", "--spec", "C(3;3)"),
                     ("explore", "conjecture41", "--max-k", "2", "--max-n", "2"),
                     ("explore", "lhat-gap", "--max-k", "2", "--max-n", "2"),
                     ("explore", "l-gap", "--max-k", "2", "--max-n", "2")):
            code, out, err = run(capsys, *argv, "--time-budget", "0")
            assert (code, out) == (1, ""), argv
            assert err == "error: budgets must be positive\n", argv

    @pytest.mark.parametrize("argv", [
        ("spec", "parse", "--spec", "C(3;2)xC(1;4)"),
        ("seq", "check", "--spec", "C(3;2)", "--file", "{seq}", "--predicate", "free"),
        ("const", "lhat", "--spec", "C(7;2)", "--method", "both"),
    ])
    def test_env_threads_unread_without_threads_flag(self, capsys, monkeypatch, tmp_path,
                                                     argv):
        seq = tmp_path / "seq.txt"
        seq.write_text("3\n3\n")
        argv = [a.format(seq=seq) for a in argv]

        def timeless(result):
            # every output line but elapsed_ms, which the clock decides
            code, out, err = result
            return code, [line for line in out.splitlines()
                          if not line.startswith("elapsed_ms:")], err

        clean = timeless(run(capsys, *argv))
        monkeypatch.setenv("EBS_THREADS", "abc")
        assert timeless(run(capsys, *argv)) == clean
        assert clean[0] == 0 and clean[1]

    @pytest.mark.parametrize("argv", [
        ("spec", "format", "--spec", "C(1;2)", "--json"),
        ("spec", "parse", "--spec", "C(1;2)", "--threads", "2"),
        ("seq", "check", "--spec", "C(1;2)", "--file", "seq.txt", "--predicate", "free",
         "--node-budget", "5"),
        ("struct", "behaving", "--ints", "1,2", "--time-budget", "1"),
        ("const", "lhat", "--spec", "C(7;2)", "--threads", "2"),
        ("explore", "lhat-gap", "--max-k", "3", "--max-n", "2", "--json"),
        ("const", "eb", "--spec", "C(2;2)", "--threads", "2"),
    ])
    def test_option_a_command_does_not_read(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "unrecognized arguments" in err


class TestCliConfig:
    """The arguments are the whole configuration of a run."""

    def test_environment_is_not_read(self, capsys, monkeypatch, tmp_path):
        def search() -> dict:
            code, out, _ = run(capsys, "const", "eb", "--spec", "C(3;2)xC(1;4)",
                               "--method", "brute", "--json")
            d = json.loads(out)
            assert (code, d["value"], d["nodes"]) == (0, 7, 8039)
            return d

        clean = search()
        monkeypatch.setenv("EBS_THREADS", "abc")
        monkeypatch.setenv("EBS_CACHE", str(tmp_path / "cache.json"))
        d = search()
        assert {**d, "elapsed_ms": 0} == {**clean, "elapsed_ms": 0}
        assert list(tmp_path.iterdir()) == []


class TestSurface:
    """The option strings of every subcommand, as the parser defines them."""

    COMMON = {"-h", "--help"}
    JSON = {"--json"}
    BUDGET = {"--node-budget", "--time-budget"}
    EXTRA = {
        "spec parse": {"--spec"} | JSON,
        "spec format": {"--spec"},
        "const eb": {"--spec", "--method", "--cache"} | JSON | BUDGET,
        "const davenport": {"--group", "--method", "--cache"} | JSON | BUDGET,
        "const lhat": {"--spec", "--method", "--cache"} | JSON | BUDGET,
        "const l": {"--spec", "--method", "--cache"} | JSON | BUDGET,
        "seq check": {"--spec", "--file", "--predicate"} | JSON,
        "struct behaving": {"--ints"} | JSON,
        "struct classify": {"--spec", "--file"} | JSON,
        "struct savchev-chen": {"--group", "--ints"} | JSON,
        "explore conjecture41": {"--max-k", "--max-n", "--out"} | BUDGET,
        "explore lhat-gap": {"--max-k", "--max-n", "--out"} | BUDGET,
        "explore l-gap": {"--max-k", "--max-n", "--out"} | BUDGET,
    }

    @staticmethod
    def options(parser, path=()):
        out = {" ".join(path): {s for a in parser._actions for s in a.option_strings}}
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    out.update(TestSurface.options(sub, path + (name,)))
        return out

    def test_option_strings(self):
        expected = {cmd: self.COMMON | extra for cmd, extra in self.EXTRA.items()}
        expected[""] = {"-h", "--help", "--version"}
        expected.update({group: {"-h", "--help"}
                         for group in ("spec", "const", "seq", "struct", "explore")})
        assert self.options(build_parser()) == expected

    def test_readme_cli_lines_parse(self):
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        lines = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0].splitlines()
        assert len(lines) == 12
        for line in lines:
            command, *argv = shlex.split(line)
            assert command == "ebs"
            build_parser().parse_args(argv)  # raises _UsageError on an unknown option


class TestStartup:
    """A short command imports only the layers it runs.  Each case runs in a
    fresh interpreter, because this process has imported everything."""

    HEAVY = {"ebs.constants", "ebs.sequences", "ebs.structure", "concurrent.futures",
             "multiprocessing"}
    # runs `main`, the command line given as arguments, unless another body
    # is given; the body sets `code`, the exit status
    PROBE = (
        "import sys\n"
        "{body}\n"
        "print('modules:', ' '.join(sorted(sys.modules)))\n"
        "sys.exit(code)\n"
    )
    MAIN = (
        "from ebs.cli import main\n"
        "try:\n"
        "    code = main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code"
    )

    def loaded(self, *argv, body=MAIN):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        probe = self.PROBE.format(body=body)
        proc = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        *out, last = proc.stdout.splitlines()
        assert last.startswith("modules: ")
        return set(last.split()[1:]) & self.HEAVY, out

    def test_version(self):
        heavy, out = self.loaded("--version")
        assert heavy == set() and out == ["ebs 0.1.0"]

    def test_spec_parse(self):
        heavy, out = self.loaded("spec", "parse", "--spec", "C(3;2)xC(1;4)")
        assert heavy == set() and out[0] == "spec: C(3;2)xC(1;4)"

    def test_cache_hit(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.json")
        argv = ("const", "eb", "--spec", "C(3;2)xC(1;4)", "--method", "both",
                "--cache", cache)
        code, first, _ = run(capsys, *argv)
        assert code == 0
        heavy, out = self.loaded(*argv)
        assert heavy.isdisjoint({"ebs.constants", "ebs.structure"})
        assert out == first.splitlines()

    def test_single_thread_by_default(self):
        heavy, out = self.loaded("const", "eb", "--spec", "C(3;2)xC(1;4)", "--method", "brute")
        assert heavy.isdisjoint({"concurrent.futures", "multiprocessing"})
        assert "value: 7" in out and "nodes: 8039" in out

    def test_library_search_starts_no_pool(self):
        # Budget.threads is read by nothing: a search asked for 2 runs in
        # the calling process like any other
        heavy, out = self.loaded(body=(
            "from ebs import Budget, eb_bruteforce, parse_spec\n"
            "r = eb_bruteforce(parse_spec('C(3;2)xC(1;4)'), Budget(threads=2))\n"
            "print(r.value, r.nodes)\n"
            "code = 0"))
        assert heavy.isdisjoint({"concurrent.futures", "multiprocessing"})
        assert out == ["7 8039"]

    def test_seq_check(self, tmp_path):
        f = tmp_path / "seq.txt"
        f.write_text("3\n3\n")
        heavy, out = self.loaded("seq", "check", "--spec", "C(3;2)", "--file", str(f),
                                 "--predicate", "free")
        assert heavy.isdisjoint({"ebs.constants", "concurrent.futures"})
        assert "result: false" in out
