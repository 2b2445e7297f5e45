"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from tests.obs.traces import collection_spans


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_defaults(self):
        args = build_parser().parse_args(["figures"])
        assert args.names == ["headline"]
        assert args.scale == pytest.approx(0.35)

    def test_bench_arguments(self):
        args = build_parser().parse_args(
            ["bench", "pmd", "--rate", "0.25", "--clustering", "2", "--line", "64"]
        )
        assert args.workload == "pmd"
        assert args.rate == pytest.approx(0.25)
        assert args.clustering == 2
        assert args.line == 64

    def test_bench_rejects_bad_line_size(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "pmd", "--line", "100"])

    def test_lifetime_strategies(self):
        args = build_parser().parse_args(["lifetime", "--strategy", "retire"])
        assert args.strategy == "retire"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lifetime", "--strategy", "nonsense"])

    def test_figures_execution_flags(self):
        args = build_parser().parse_args(
            ["figures", "headline", "--jobs", "4", "--cache-dir", "/tmp/c",
             "--no-cache", "--sweep-json", "out.json"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"
        assert args.no_cache
        assert args.sweep_json == "out.json"

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.workloads is None
        assert args.rates == [0.0, 0.10, 0.25, 0.50]
        assert args.heaps == [2.0]
        assert args.jobs == 1
        assert args.out == "BENCH_sweep.json"


class TestCommands:
    def test_workloads_lists_all(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("antlr", "pmd", "xalan", "lusearch-fix"):
            assert name in out

    def test_bench_runs_and_reports(self, capsys):
        code = main(["bench", "luindex", "--scale", "0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "completed" in out
        assert "collections" in out

    def test_bench_dnf_exit_code(self, capsys):
        code = main(
            ["bench", "luindex", "--scale", "0.2", "--heap", "1.0",
             "--rate", "0.5", "--no-compensate"]
        )
        assert code == 1
        assert "DNF" in capsys.readouterr().out

    def test_figures_unknown_name(self, capsys):
        assert main(["figures", "fig99"]) == 2
        assert "unknown figures" in capsys.readouterr().err

    def test_figures_headline_quick(self, capsys):
        code = main(["figures", "headline", "--scale", "0.15"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Headline" in out
        assert "no failures, failure-aware" in out

    def test_figures_json_output(self, capsys):
        import json

        code = main(["figures", "headline", "--scale", "0.12", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "headline" in payload
        rows = payload["headline"][0]["rows"]
        assert rows[0][0] == "no failures, failure-aware"

    def test_sweep_writes_artifact(self, capsys, tmp_path):
        import json

        out = tmp_path / "BENCH_sweep.json"
        code = main(
            ["sweep", "--workloads", "luindex", "--rates", "0", "0.1",
             "--heaps", "2.0", "--scale", "0.2", "--out", str(out)]
        )
        assert code == 0
        assert "luindex" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro.sweep/2"
        assert payload["cells"] == 2
        assert len(payload["cell_timings"]) == 2
        assert len(payload["results"]) == 2
        assert payload["fault_tolerance"]["quarantined"] == []

    def test_parallel_sweep_quarantines_failing_cell(
        self, capsys, tmp_path, monkeypatch
    ):
        # No retry flags: the raising cell gets one attempt, then the
        # sweep exits 3 with the surviving cell in a partial artifact.
        import json

        from repro.sim import ftexec

        real = ftexec.run_benchmark

        def flaky(config, cost_model):
            if config.failure_model.rate > 0:
                raise RuntimeError("cell blew up")
            return real(config, cost_model)

        monkeypatch.setattr(ftexec, "run_benchmark", flaky)  # workers fork
        out = tmp_path / "BENCH_sweep.json"
        code = main(
            ["sweep", "--workloads", "luindex", "--rates", "0", "0.1",
             "--heaps", "2.0", "--scale", "0.2", "--jobs", "2",
             "--out", str(out)]
        )
        assert code == 3
        assert "quarantined" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert len(payload["results"]) == 1
        report = payload["fault_tolerance"]
        assert report["retries"] == 0
        assert report["worker_errors"] == 1
        (cell,) = report["quarantined"]
        assert cell["attempts"] == 1
        assert "RuntimeError: cell blew up" in cell["failures"][0]

    def test_parallel_figures_quarantine_failing_cells(
        self, capsys, tmp_path, monkeypatch
    ):
        # The same flaky cells as above: figures stops rendering, exits
        # 3 like sweep, and its artifact keeps the surviving results.
        import json

        from repro.sim import ftexec

        real = ftexec.run_benchmark

        def flaky(config, cost_model):
            if config.failure_model.rate > 0:
                raise RuntimeError("cell blew up")
            return real(config, cost_model)

        monkeypatch.setattr(ftexec, "run_benchmark", flaky)  # workers fork
        out = tmp_path / "BENCH_sweep.json"
        code = main(
            ["figures", "headline", "--scale", "0.2", "--jobs", "2",
             "--sweep-json", str(out)]
        )
        assert code == 3
        assert "quarantined" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        quarantined = payload["fault_tolerance"]["quarantined"]
        assert quarantined
        assert all("RuntimeError: cell blew up" in cell["failures"][0]
                   for cell in quarantined)
        assert payload["results"]
        assert all(result["config"]["failure_model"]["rate"] == 0
                   for result in payload["results"])
        assert payload["cells"] == len(payload["results"]) + len(quarantined)

    def test_sweep_cache_hits_on_second_run(self, capsys, tmp_path):
        import json

        out = tmp_path / "BENCH_sweep.json"
        argv = ["sweep", "--workloads", "luindex", "--rates", "0", "0.1",
                "--heaps", "2.0", "--scale", "0.2", "--out", str(out),
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        first = json.loads(out.read_text())
        assert first["cache"] == {"hits": 0, "misses": 2}
        assert main(argv) == 0
        second = json.loads(out.read_text())
        assert second["cache"] == {"hits": 2, "misses": 0}
        capsys.readouterr()

    def test_figures_with_cache_and_jobs(self, capsys, tmp_path):
        argv = ["figures", "headline", "--scale", "0.15",
                "--jobs", "2", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        # Identical rendered output, and the re-run is all cache hits.
        assert second.out == first.out
        assert "0 misses" in second.err

    def test_trace_writes_valid_chrome_trace(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        out = tmp_path / "trace.json"
        code = main(
            ["bench", "luindex", "--scale", "0.05", "--clustering", "2",
             "--wear", "25", "--trace", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) == []
        categories = {
            e.get("cat") for e in payload["traceEvents"] if e["ph"] != "M"
        }
        # A wearing run exercises every layer of the stack.
        assert categories == {"hardware", "os", "runtime"}
        assert payload["otherData"]["dynamic_failed_lines"] > 0
        assert payload["otherData"]["wear_mean_writes"] == 25.0
        captured = capsys.readouterr()
        assert "phase breakdown" in captured.out
        assert "mutator" in captured.out
        assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]

    def test_trace_unknown_workload(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["bench", "nope", "--trace", str(out)]) == 2
        assert "unknown workload" in capsys.readouterr().err
        assert not out.exists()

    def test_quiet_suppresses_reports_not_json(self, capsys):
        assert main(["-q", "bench", "luindex", "--scale", "0.2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert main(["-q", "figures", "headline", "--scale", "0.12",
                     "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert "headline" in payload

    def test_bench_trace_flag(self, capsys, tmp_path):
        import json

        out = tmp_path / "bench.trace.json"
        code = main(
            ["bench", "luindex", "--scale", "0.2", "--rate", "0.1",
             "--trace", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["otherData"]["workload"] == "luindex"
        assert "phase breakdown" in capsys.readouterr().out

    def test_sweep_trace_writes_per_cell_traces(self, capsys, tmp_path):
        import json

        traces = tmp_path / "traces"
        out = tmp_path / "BENCH_sweep.json"
        code = main(
            ["sweep", "--workloads", "luindex", "--rates", "0", "0.1",
             "--scale", "0.2", "--out", str(out), "--trace", str(traces)]
        )
        assert code == 0
        files = sorted(p.name for p in traces.iterdir())
        assert files == [
            "luindex_r0_h2_L256_c0_sticky-immix_s0_x0p2.trace.json",
            "luindex_r0p1_h2_L256_c0_sticky-immix_s0_x0p2.trace.json",
        ]
        payload = json.loads(out.read_text())
        assert payload["cells"] == 2
        assert len(payload["cell_timings"]) == 2
        capsys.readouterr()

    def test_lifetime_command(self, capsys):
        code = main(
            ["lifetime", "--strategy", "retire", "--workload", "luindex",
             "--iterations", "3", "--endurance", "30"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "retire page on first failure" in out
        assert "iter" in out


def _cases(*rows):
    """Parametrize ``extra, message`` over ``(rule, extra, message)`` rows.

    Each case is named ``extra<i>-<rule>``, after the rule its input
    breaks; ``message`` is the stderr line the command must print.
    """
    return pytest.mark.parametrize(
        "extra, message",
        [(extra, message) for _, extra, message in rows],
        ids=[f"extra{i}-{rule}" for i, (rule, _, _) in enumerate(rows)],
    )


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """An empty working directory, so a refused command's output shows."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _refused(capsys, workdir, argv, message):
    """``argv`` exits 2 with one stderr line starting ``message``, before
    any work: no artifact or trace is written."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(message), lines
    assert "Traceback" not in captured.err
    assert list(workdir.iterdir()) == []


#: Run-shape flags every ``bench`` run checks with the plan cell
#: checkers, traced or not.
BAD_RUN_SHAPES = [
    ("--rate must be in [0, 1], got 1.5", ["--rate", "1.5"],
     "--rate: failure rate 1.5 outside [0, 1]"),
    ("--rate must be in [0, 1], got -1.0", ["--rate", "-1"],
     "--rate: failure rate -1.0 outside [0, 1]"),
    ("--rate must be in [0, 1]", ["--rate", "nan"],
     "--rate: failure rate nan outside [0, 1]"),
    ("--heap must be a positive multiplier", ["--heap", "0"],
     "--heap: expected a positive heap multiplier, got 0.0"),
    ("--heap must be a positive multiplier", ["--heap", "inf"],
     "--heap: expected a positive heap multiplier, got inf"),
    ("--scale must be a positive number, got 0.0", ["--scale", "0"],
     "--scale: expected a scale in (0, 1], got 0.0"),
    ("--scale must be a positive number", ["--scale", "-1"],
     "--scale: expected a scale in (0, 1], got -1.0"),
    ("--clustering must be >= 0 pages", ["--clustering", "-1"],
     "--clustering: expected a page count >= 0, got -1"),
]


class TestBenchBadInput:
    """Bad ``bench`` arguments exit 2 with one line, before any work."""

    def test_unknown_workload(self, capsys, workdir):
        _refused(capsys, workdir, ["bench", "nosuch"],
                 "bench: workload: unknown workload 'nosuch'")

    @_cases(*BAD_RUN_SHAPES,
            ("--wear must be >= 0 writes", ["--scale", "0.05", "--wear", "nan"],
             "--wear must be >= 0 writes (0 = aged module), got nan"),
            ("--seed: expected a seed >= 0, got -3", ["--scale", "0.05", "--seed", "-3"],
             "--seed: expected a seed >= 0, got -3"),
            ("expected a scale in (0, 1], got 1.5", ["--scale", "1.5"],
             "--scale: expected a scale in (0, 1], got 1.5"),
            ("--heap must be a positive multiplier", ["--heap", "nan"],
             "--heap: expected a positive heap multiplier, got nan"),
            ("cannot compensate a failure rate of 1.0",
             ["--scale", "0.05", "--rate", "1.0"],
             "--rate: cannot compensate a failure rate of 1.0 (no line works)"))
    def test_bad_value_exits_2(self, capsys, workdir, extra, message):
        _refused(capsys, workdir, ["bench", "pmd"] + extra, f"bench: {message}")


class TestTraceBadInput:
    """Bad arguments to a traced ``bench`` run exit 2 with one line, before
    any work, and write no trace."""

    def test_unknown_workload(self, capsys, workdir):
        _refused(capsys, workdir, ["bench", "nosuch", "--trace", "trace.json"],
                 "bench: workload: unknown workload 'nosuch'")

    @_cases(*BAD_RUN_SHAPES,
            ("--buffer must be >= 1 event", ["--buffer", "0"],
             "--buffer must be >= 1 event, got 0"),
            ("--wear must be >= 0 writes (0 = aged module), got -1.0",
             ["--scale", "0.05", "--wear", "-1"],
             "--wear must be >= 0 writes (0 = aged module), got -1.0"),
            ("--wear must be >= 0 writes", ["--scale", "0.05", "--wear", "inf"],
             "--wear must be >= 0 writes (0 = aged module), got inf"),
            ("--seed: expected a seed >= 0, got -3", ["--scale", "0.05", "--seed", "-3"],
             "--seed: expected a seed >= 0, got -3"),
            ("expected a scale in (0, 1], got 1.5", ["--scale", "1.5"],
             "--scale: expected a scale in (0, 1], got 1.5"),
            ("cannot compensate a failure rate of 1.0",
             ["--scale", "0.05", "--rate", "1.0"],
             "--rate: cannot compensate a failure rate of 1.0 (no line works)"))
    def test_bad_value_exits_2(self, capsys, workdir, extra, message):
        argv = ["bench", "pmd", "--trace", "trace.json"] + extra
        _refused(capsys, workdir, argv, f"bench: {message}")


class TestRetiredOutputFlags:
    """The Chrome trace is a run's one event output: the JSONL and
    Prometheus flags are unknown."""

    @pytest.mark.parametrize("argv", [
        ["bench", "luindex", "--jsonl", "trace.jsonl"],
        ["bench", "luindex", "--metrics-out", "metrics.prom"],
        ["sweep", "--metrics-out", "metrics.prom"],
        ["figures", "headline", "--metrics-out", "metrics.prom"],
    ], ids=["bench-jsonl", "bench-metrics-out", "sweep-metrics-out",
            "figures-metrics-out"])
    def test_flags_are_gone(self, capsys, workdir, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []


class TestCheckBadInput:
    """Bad ``check`` arguments exit 2 with one line, before any work."""

    @_cases(("--seed must be >= 0, got -5", ["--seed", "-5"],
             "--seed: expected a seed >= 0, got -5"),
            ("--scale must be a positive number", ["--scale", "0"],
             "--scale: expected a scale in (0, 1], got 0.0"),
            ("--scale must be a positive number", ["--scale", "-0.5"],
             "--scale: expected a scale in (0, 1], got -0.5"),
            ("--scale must be a positive number", ["--scale", "inf"],
             "--scale: expected a scale in (0, 1], got inf"),
            ("--scale must be a positive number", ["--scale", "nan"],
             "--scale: expected a scale in (0, 1], got nan"),
            ("unknown workloads: nosuch;", ["--workloads", "luindex", "nosuch"],
             "--workloads: unknown workload 'nosuch'"),
            ("expected a scale in (0, 1], got 1.5", ["--scale", "1.5"],
             "--scale: expected a scale in (0, 1], got 1.5"))
    def test_bad_value_exits_2(self, capsys, workdir, extra, message):
        _refused(capsys, workdir, ["check"] + extra, f"check: {message}")


class TestLifetimeBadInput:
    """Bad ``lifetime`` arguments exit 2 with one line, before any work."""

    @_cases(("--endurance must be a positive number", ["--endurance", "0"],
             "--endurance must be a positive number of writes, got 0.0"),
            ("--endurance must be a positive number", ["--endurance", "-3"],
             "--endurance must be a positive number of writes, got -3.0"),
            ("--endurance must be a positive number", ["--endurance", "nan"],
             "--endurance must be a positive number of writes, got nan"),
            ("unknown workload 'nosuch'", ["--workload", "nosuch"],
             "--workload: unknown workload 'nosuch'"),
            ("--iterations must be >= 1", ["--iterations", "-1"],
             "--iterations must be >= 1, got -1"),
            ("--iterations must be >= 1", ["--iterations", "0"],
             "--iterations must be >= 1, got 0"))
    def test_bad_value_exits_2(self, capsys, workdir, extra, message):
        _refused(capsys, workdir, ["lifetime"] + extra, f"lifetime: {message}")

    @pytest.mark.parametrize("extra", [
        ["--checkpoint-every", "2"], ["--resume", "x"],
    ], ids=["checkpoint-every", "resume"])
    def test_checkpoint_flags_are_gone(self, capsys, workdir, extra):
        """Studies are not checkpointed: the old flags are unknown."""
        with pytest.raises(SystemExit) as exit_info:
            main(["lifetime", "--workload", "luindex", "--iterations", "1"] + extra)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []


#: A one-cell sweep: a bad value that slips through runs quickly.
SMALL_SWEEP = ["sweep", "--workloads", "luindex", "--rates", "0", "--scale", "0.05"]

#: Bad input for the grid and file commands, with the one stderr line
#: each must print.
BAD_INPUT = [
    (["sweep", "--heaps", "inf"],
     "sweep: --heaps: expected a positive heap multiplier, got inf"),
    (["sweep", "--heaps", "nan"],
     "sweep: --heaps: expected a positive heap multiplier, got nan"),
    (["sweep", "--heaps", "-1"],
     "sweep: --heaps: expected a positive heap multiplier, got -1.0"),
    (["sweep", "--workloads", "luindex", "nosuch"],
     "sweep: --workloads: unknown workload 'nosuch'"),
    (["sweep", "--retries", "0"], "sweep: --retries must be >= 1 attempt, got 0"),
    (["figures", "--retries", "0"], "figures: --retries must be >= 1 attempt, got 0"),
    (SMALL_SWEEP + ["--timeout", "-1"],
     "sweep: --timeout must be a finite number of seconds > 0, got -1.0"),
    (SMALL_SWEEP + ["--timeout", "nan"],
     "sweep: --timeout must be a finite number of seconds > 0, got nan"),
    (SMALL_SWEEP + ["--retry-delay", "nan"],
     "sweep: --retry-delay must be a finite number of seconds >= 0, got nan"),
    (["sweep", "--retry-delay", "-1"],
     "sweep: --retry-delay must be a finite number of seconds >= 0, got -1.0"),
    (["figures", "--retry-delay", "-1"],
     "figures: --retry-delay must be a finite number of seconds >= 0, got -1.0"),
    (["figures", "--scale", "1.5"],
     "figures: --scale: expected a scale in (0, 1], got 1.5"),
    (["sweep", "--workloads", "luindex", "--rates", "0", "1.0", "--scale", "0.05"],
     "sweep: --rates: cannot compensate a failure rate of 1.0 (no line works)"),
    (["plan", "nosuch.yaml"], "plan: nosuch.yaml: cannot read plan"),
    (["report", "nosuch.jsonl"], "report: cannot read nosuch.jsonl"),
]


@pytest.mark.parametrize(
    "argv, message", BAD_INPUT, ids=[" ".join(argv) for argv, _ in BAD_INPUT]
)
def test_bad_input_exits_2(capsys, workdir, argv, message):
    _refused(capsys, workdir, argv, message)


class TestTraceConflicts:
    """--trace cannot honour resume/retry intent: hard usage errors."""

    def test_trace_resume_is_an_error(self, capsys, tmp_path):
        code = main(
            ["sweep", "--trace", str(tmp_path / "t"), "--resume",
             "--cache-dir", str(tmp_path / "c")]
        )
        assert code == 2
        assert "--resume" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [["--retries", "2"], ["--retry-delay", "0.1"], ["--timeout", "5"]],
    )
    def test_trace_retry_flags_are_errors(self, capsys, tmp_path, extra):
        code = main(["sweep", "--trace", str(tmp_path / "t")] + extra)
        assert code == 2
        err = capsys.readouterr().err
        assert extra[0] in err
        # Nothing ran: no trace directory, no artifact.
        assert not (tmp_path / "t").exists()


    @pytest.mark.parametrize(
        "extra",
        [["--retries", "2"], ["--retry-delay", "0.1"], ["--timeout", "5"]],
    )
    def test_figures_trace_retry_flags_are_errors(self, capsys, tmp_path, extra):
        code = main(
            ["figures", "headline", "--scale", "0.05",
             "--trace", str(tmp_path / "t")] + extra
        )
        assert code == 2
        assert extra[0] in capsys.readouterr().err
        assert not (tmp_path / "t").exists()


class TestTracedSweep:
    """A traced sweep is the untraced sweep plus one trace per cell."""

    def test_matches_untraced_sweep(self, capsys, tmp_path):
        import json

        grid = ["sweep", "--workloads", "luindex", "--rates", "0", "0.1",
                "--scale", "0.2"]
        plain_out = tmp_path / "plain.json"
        traced_out = tmp_path / "traced.json"
        assert main(grid + ["--out", str(plain_out)]) == 0
        assert main(
            grid + ["--out", str(traced_out), "--trace", str(tmp_path / "t")]
        ) == 0
        capsys.readouterr()
        plain = json.loads(plain_out.read_text())
        traced = json.loads(traced_out.read_text())
        # Tracing fills in each cell's simulated-time phase breakdown;
        # the rest of the results section is the untraced sweep's.
        for result in traced["results"]:
            assert result.pop("phase_breakdown")
        for result in plain["results"]:
            assert result.pop("phase_breakdown") is None
        assert json.dumps(traced["results"], sort_keys=True) == json.dumps(
            plain["results"], sort_keys=True
        )
        assert sorted(traced) == sorted(plain)
        assert traced["cells"] == plain["cells"] == 2
        assert [sorted(t) for t in traced["cell_timings"]] == [
            sorted(t) for t in plain["cell_timings"]
        ]
        # Each cell's trace holds one collection span per collection.
        spans = collection_spans(tmp_path / "t")
        assert sorted(spans.values()) == sorted(
            result["stats"]["collections"] for result in traced["results"]
        )
        assert sum(spans.values()) > 0


    def test_traced_figures_render_the_untraced_figures(self, capsys, tmp_path):
        import json

        argv = ["figures", "headline", "--scale", "0.12"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        traces = tmp_path / "t"
        assert main(
            argv + ["--trace", str(traces),
                    "--jobs", "2", "--cache-dir", str(tmp_path / "cache")]
        ) == 0
        assert capsys.readouterr().out == plain
        assert not (tmp_path / "cache").exists()
        files = list(traces.iterdir())
        assert files
        for path in files:
            assert "completed" in json.loads(path.read_text())["otherData"]
        assert sum(collection_spans(traces).values()) > 0


class TestSweepFlagGrid:
    """The grid flags compile to a plan and take its precheck."""

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--rates", "1.5"], "failure rate 1.5 outside [0, 1]"),
            (["--heaps", "-1"], "expected a positive heap multiplier"),
            (["--scale", "0"], "expected a scale in (0, 1]"),
            (["--seeds", "-1"], "expected a seed >= 0"),
            (["--rates", "0.1", "0.1"], "duplicate of cells[0]"),
            (["--workloads", "nosuch"], "unknown workload"),
        ],
    )
    def test_bad_value_exits_2(self, capsys, tmp_path, extra, message):
        out = tmp_path / "BENCH_sweep.json"
        code = main(
            ["sweep", "--workloads", "luindex", "--rates", "0",
             "--scale", "0.2", "--out", str(out)] + extra
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_flags_expand_to_the_smoke_plan(self):
        from pathlib import Path

        from repro.cli import _sweep_flags_plan
        from repro.sim.plan import expand, load_and_expand

        args = build_parser().parse_args(
            ["sweep", "--workloads", "luindex", "antlr", "--rates", "0",
             "0.1", "--heaps", "2.0", "--scale", "0.2"]
        )
        smoke = Path(__file__).resolve().parent.parent / "plans" / "smoke.yaml"
        assert expand(_sweep_flags_plan(args)).cells == load_and_expand(
            smoke
        ).cells

    def test_conflict_checks_use_the_parser_defaults(self):
        from repro.cli import _FIGURES_PLAN_DEFAULTS, _SWEEP_GRID_DEFAULTS

        parser = build_parser()
        for command, defaults in (
            ("sweep", _SWEEP_GRID_DEFAULTS),
            ("figures", _FIGURES_PLAN_DEFAULTS),
        ):
            args = parser.parse_args([command])
            assert {name: getattr(args, name) for name in defaults} == defaults


class TestFiguresFlagChecks:
    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--scale", "0"], "--scale: expected a scale in (0, 1]"),
            (["--scale", "1.5"], "--scale: expected a scale in (0, 1]"),
            (["--seeds", "0", "-1"], "--seeds: expected a seed >= 0"),
        ],
    )
    def test_bad_value_exits_2(self, capsys, extra, message):
        assert main(["figures", "headline"] + extra) == 2
        assert message in capsys.readouterr().err


def _write_plan(tmp_path, text, name="plan.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SMOKE_PLAN = """\
plan: repro.plan/1
name: smoke
defaults:
  scale: 0.2
axes:
  workload: [luindex]
  rate: [0.0, 0.1]
"""


class TestPlanCommand:
    def test_precheck_ok(self, capsys, tmp_path):
        assert main(["plan", _write_plan(tmp_path, SMOKE_PLAN)]) == 0
        out = capsys.readouterr().out
        assert "precheck OK" in out
        assert "cells: 2" in out

    def test_precheck_reports_every_problem(self, capsys, tmp_path):
        path = _write_plan(
            tmp_path,
            "plan: repro.plan/1\n"
            "name: bad\n"
            "defaults:\n"
            "  heap: -1\n"
            "axes:\n"
            "  workload: [luindex, nosuch]\n",
        )
        assert main(["plan", path]) == 2
        err = capsys.readouterr().err
        assert "unknown workload 'nosuch'" in err
        assert "positive heap multiplier" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["plan", str(tmp_path / "nope.yaml")]) == 2
        assert "cannot read plan" in capsys.readouterr().err

    def test_dry_run_lists_cells_without_executing(self, capsys, tmp_path):
        path = _write_plan(tmp_path, SMOKE_PLAN)
        assert main(["plan", path, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "cells         2" in out
        assert "luindex_r0_h2_L256_c0_sticky-immix_s0_x0p2" in out
        assert "luindex_r0p1_h2_L256_c0_sticky-immix_s0_x0p2" in out

    def test_dry_run_json_payload(self, capsys, tmp_path):
        import json

        path = _write_plan(tmp_path, SMOKE_PLAN)
        assert main(["plan", path, "--dry-run", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.plan-dry-run/1"
        assert payload["cells"] == 2
        assert [c["rate"] for c in payload["cell_list"]] == [0.0, 0.1]
        assert all(c["cached"] is False for c in payload["cell_list"])

    def test_dry_run_estimates_cache_hits(self, capsys, tmp_path):
        import json

        path = _write_plan(tmp_path, SMOKE_PLAN)
        cache = tmp_path / "cache"
        # Warm one of the two cells via the flag spelling.
        assert main(
            ["sweep", "--workloads", "luindex", "--rates", "0",
             "--scale", "0.2", "--out", str(tmp_path / "warm.json"),
             "--cache-dir", str(cache)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["plan", path, "--dry-run", "--json", "--cache-dir", str(cache)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"]["estimated_hits"] == 1
        assert payload["cache"]["estimated_misses"] == 1


class TestSweepPlan:
    def test_plan_matches_flag_spelling_bit_for_bit(self, capsys, tmp_path):
        import json

        path = _write_plan(tmp_path, SMOKE_PLAN)
        plan_out = tmp_path / "plan_sweep.json"
        flag_out = tmp_path / "flag_sweep.json"
        assert main(["sweep", "--plan", path, "--out", str(plan_out)]) == 0
        assert main(
            ["sweep", "--workloads", "luindex", "--rates", "0", "0.1",
             "--heaps", "2.0", "--scale", "0.2", "--out", str(flag_out)]
        ) == 0
        capsys.readouterr()
        plan_payload = json.loads(plan_out.read_text())
        flag_payload = json.loads(flag_out.read_text())
        assert plan_payload["results"] == flag_payload["results"]

    def test_plan_conflicts_with_grid_flags(self, capsys, tmp_path):
        path = _write_plan(tmp_path, SMOKE_PLAN)
        code = main(["sweep", "--plan", path, "--rates", "0", "0.5"])
        assert code == 2
        assert "--rates" in capsys.readouterr().err

    def test_schema_violation_exits_2(self, capsys, tmp_path):
        path = _write_plan(
            tmp_path,
            "plan: repro.plan/1\nname: bad\naxes:\n  workload: [nosuch]\n",
        )
        assert main(["sweep", "--plan", path]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_figures_only_plan_is_rejected(self, capsys, tmp_path):
        path = _write_plan(
            tmp_path,
            "plan: repro.plan/1\nname: figs\nfigures: [headline]\n",
        )
        assert main(["sweep", "--plan", path]) == 2
        assert "no grid cells" in capsys.readouterr().err


class TestFiguresPlan:
    def test_figures_plan_runs_listed_figures(self, capsys, tmp_path):
        path = _write_plan(
            tmp_path,
            "plan: repro.plan/1\n"
            "name: quick\n"
            "defaults:\n"
            "  scale: 0.12\n"
            "figures: [headline]\n",
        )
        assert main(["figures", "--plan", path]) == 0
        assert "Headline" in capsys.readouterr().out

    def test_figures_plan_without_figures_is_rejected(self, capsys, tmp_path):
        path = _write_plan(tmp_path, SMOKE_PLAN)
        assert main(["figures", "--plan", path]) == 2
        assert "no figures" in capsys.readouterr().err

    def test_figures_plan_conflicts_with_scale(self, capsys, tmp_path):
        path = _write_plan(
            tmp_path,
            "plan: repro.plan/1\nname: figs\nfigures: [headline]\n",
        )
        assert main(["figures", "--plan", path, "--scale", "0.1"]) == 2
        assert "--scale" in capsys.readouterr().err


class TestFiguresGrid:
    """Serial, cacheless figures run their grid through run_grid too."""

    ARGV = ["figures", "headline", "--scale", "0.05"]

    def test_ledger_and_artifact_cover_the_whole_grid(self, capsys, tmp_path):
        import json

        from repro.obs.ledger import read_ledger

        ledger = tmp_path / "figures.ledger.jsonl"
        out = tmp_path / "BENCH_sweep.json"
        assert main(
            self.ARGV + ["--ledger", str(ledger), "--sweep-json", str(out)]
        ) == 0
        capsys.readouterr()
        events, problems = read_ledger(str(ledger))
        assert problems == []
        assert {"sweep_begin", "sweep_end"} <= {e["ev"] for e in events}
        payload = json.loads(out.read_text())
        # 12 workloads x 5 configurations (the failure-aware no-failure
        # run is the baseline cell).
        assert payload["cells"] == len(payload["results"]) == 60

    def test_timeout_quarantines_serial_cells(self, capsys, tmp_path):
        # --retries 1: a bare --timeout arms three attempts with backoff.
        code = main(self.ARGV + ["--timeout", "0.001", "--retries", "1"])
        assert code == 3
        assert "quarantined" in capsys.readouterr().err


class TestSweepRecorder:
    """The flight-recorder flags: --ledger / --profile-cells / --progress."""

    def sweep(self, tmp_path, *extra, name="sweep.json"):
        out = tmp_path / name
        code = main(
            ["sweep", "--workloads", "luindex", "--rates", "0", "0.1",
             "--scale", "0.2", "--out", str(out)] + list(extra)
        )
        return code, out

    def test_ledger_records_the_sweep(self, capsys, tmp_path):
        import json

        from repro.obs.ledger import read_ledger

        ledger = tmp_path / "sweep.ledger.jsonl"
        code, out = self.sweep(tmp_path, "--ledger", str(ledger))
        assert code == 0
        events, problems = read_ledger(str(ledger))
        assert problems == []
        kinds = {e["ev"] for e in events}
        assert {"sweep_begin", "sweep_end", "dispatch", "attempt_start",
                "attempt_end", "collect"} <= kinds
        # The artifact gains a wall_clock block next to results.
        payload = json.loads(out.read_text())
        assert payload["wall_clock"]["schema"] == "repro.ledger-report/1"
        assert payload["wall_clock"]["executed"] == 2
        assert len(payload["results"]) == 2

    def test_results_bit_identical_with_recorder_on(self, capsys, tmp_path):
        import json

        plain_code, plain = self.sweep(tmp_path, name="plain.json")
        rec_code, recorded = self.sweep(
            tmp_path, "--ledger", str(tmp_path / "l.jsonl"),
            "--profile-cells", "--jobs", "2", name="recorded.json",
        )
        assert plain_code == rec_code == 0
        plain_results = json.loads(plain.read_text())["results"]
        recorded_results = json.loads(recorded.read_text())["results"]
        assert plain_results == recorded_results

    def test_profile_cells_defaults_ledger_and_spools(self, capsys, tmp_path):
        code, out = self.sweep(tmp_path, "--profile-cells")
        assert code == 0
        assert (tmp_path / "sweep.ledger.jsonl").exists()
        spools = list((tmp_path / "sweep.ledger.profiles").glob("*.pstats"))
        assert len(spools) == 2

    def test_progress_narrates(self, capsys, tmp_path):
        code, _ = self.sweep(tmp_path, "--progress")
        assert code == 0
        err = capsys.readouterr().err
        assert "progress: 2/2 cells" in err

    @pytest.mark.parametrize(
        "extra",
        [["--ledger", "l.jsonl"], ["--profile-cells"], ["--progress"]],
    )
    def test_recorder_conflicts_with_trace(self, capsys, tmp_path, extra):
        code = main(
            ["sweep", "--trace", str(tmp_path / "t"), "--workloads",
             "luindex", "--rates", "0", "--scale", "0.2",
             "--out", str(tmp_path / "s.json")] + extra
        )
        assert code == 2
        assert extra[0] in capsys.readouterr().err


class TestReportCommand:
    def recorded_sweep(self, tmp_path, *extra):
        ledger = tmp_path / "sweep.ledger.jsonl"
        code = main(
            ["sweep", "--workloads", "luindex", "--rates", "0", "0.1",
             "--scale", "0.2", "--out", str(tmp_path / "sweep.json"),
             "--ledger", str(ledger)] + list(extra)
        )
        assert code == 0
        return str(ledger)

    def test_human_report(self, capsys, tmp_path):
        ledger = self.recorded_sweep(tmp_path)
        capsys.readouterr()
        assert main(["report", ledger]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "simulate" in out
        assert "coverage" in out
        assert "slowest cells" in out

    def test_json_report_meets_coverage_floor(self, capsys, tmp_path):
        import json

        ledger = self.recorded_sweep(tmp_path)
        capsys.readouterr()
        assert main(["report", ledger, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.ledger-report/1"
        assert payload["cells"] == 2
        assert payload["executed"] == 2
        assert payload["ledger_problems"] == []
        # The acceptance floor: the ledger explains >= 95 % of the
        # measured wall clock on a sweep that executes its cells.
        assert payload["coverage"] >= 0.95

    def test_report_folds_old_ledger_with_transport_fields(self, capsys, tmp_path):
        import json

        # A ledger from before results moved by plain pickling: its
        # collect events still carry byte counts the report now ignores.
        events = [
            {"ev": "sweep_begin", "cells": 1, "jobs": 2},
            {"ev": "dispatch", "cell": 0, "workload": "luindex"},
            {"ev": "attempt_start", "cell": 0, "attempt": 1},
            {"ev": "attempt_end", "cell": 0, "attempt": 1, "ok": True,
             "wall_s": 0.5},
            {"ev": "collect", "cell": 0, "workload": "luindex", "wall_s": 0.5,
             "result_bytes": 1400, "pickle_bytes": 1650},
            {"ev": "sweep_end", "cells": 1, "executed": 1, "cached": 0},
        ]
        ledger = tmp_path / "old.ledger.jsonl"
        ledger.write_text("".join(
            json.dumps({"t": float(t), "pid": 1, **event}) + "\n"
            for t, event in enumerate(events)
        ))
        assert main(["report", str(ledger)]) == 0
        captured = capsys.readouterr()
        assert "phase breakdown" in captured.out
        assert "transport" not in captured.out + captured.err
        assert main(["report", str(ledger), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ledger_problems"] == []
        assert payload["executed"] == 1
        assert "transport" not in payload

    def test_report_merges_profiles(self, capsys, tmp_path):
        ledger = self.recorded_sweep(tmp_path, "--profile-cells")
        capsys.readouterr()
        assert main(["report", ledger]) == 0
        out = capsys.readouterr().out
        assert "hotspots" in out
        assert "cumulative(s)" in out

    def test_trace_out_writes_valid_wall_clock_trace(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace
        from repro.obs.export import LEDGER_CATEGORIES

        ledger = self.recorded_sweep(tmp_path)
        trace = tmp_path / "wall.json"
        assert main(["report", ledger, "--trace-out", str(trace)]) == 0
        payload = json.loads(trace.read_text())
        assert validate_chrome_trace(payload, LEDGER_CATEGORIES) == []

    def test_missing_ledger_exits_2(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_empty_ledger_exits_1(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", str(empty)]) == 1
        assert "no events" in capsys.readouterr().err


class TestRemovedEnvironmentSwitches:
    """``REPRO_KERNELS`` and ``REPRO_RESULT_TRANSPORT`` are ignored.

    Each sweep runs in a fresh interpreter, so a variable read at import
    time would be seen; ``results`` must match a run without any.
    """

    @staticmethod
    def sweep(tmp_path, env):
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        out = tmp_path / "sweep.json"
        src = str(Path(__file__).resolve().parent.parent / "src")
        clean = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "-q", "sweep", "--workloads",
             "luindex", "--rates", "0.1", "--scale", "0.05", "--no-cache",
             "--out", str(out)],
            env={**clean, "PYTHONPATH": src, **env},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(out.read_text())["results"]

    @pytest.fixture(scope="class")
    def clean_results(self, tmp_path_factory):
        return self.sweep(tmp_path_factory.mktemp("clean"), {})

    @pytest.mark.parametrize(
        "env",
        [
            {"REPRO_KERNELS": "reference"},
            {"REPRO_KERNELS": "bogus"},
            {"REPRO_RESULT_TRANSPORT": "pickle"},
            {"REPRO_RESULT_TRANSPORT": "bogus"},
        ],
        ids=lambda env: "=".join(next(iter(env.items()))),
    )
    def test_leftover_ignored(self, tmp_path, clean_results, env):
        assert self.sweep(tmp_path, env) == clean_results
