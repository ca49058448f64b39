"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_every_subcommand_parses(self):
        parser = build_parser()
        for argv in (
            ["info"],
            ["rates", "--mode", "pv", "--seconds", "10"],
            ["train", "--scale", "0.05"],
            ["train", "--scale", "0.05", "--jobs", "2",
             "--journal-dir", "runs", "--resume"],
            ["train", "--datasets-from", "runs", "--save-model", "m.json"],
            ["campaign", "--injections", "100"],
            ["campaign", "--injections", "100", "--jobs", "4",
             "--journal", "j.jsonl", "--resume"],
            ["overhead"],
            ["recovery", "--seed", "9"],
            ["serve", "--model", "m.json", "--max-rows", "5000"],
            ["serve", "--model", "m.json", "--hosts", "200",
             "--vms-per-host", "8", "--duration", "5", "--port", "9109",
             "--batch-rows", "512", "--queue-depth", "2048",
             "--policy", "block", "--hold", "10", "--summary", "s.json"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_campaign_defaults_preserve_serial_behaviour(self):
        args = build_parser().parse_args(["campaign"])
        assert args.jobs == 1
        assert args.journal is None
        assert args.resume is False


class TestExecution:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "exit reasons" in out and "hypercall" in out and "38" in out

    def test_rates(self, capsys):
        assert main(["rates", "--mode", "pv", "--seconds", "50"]) == 0
        out = capsys.readouterr().out
        assert "postmark" in out and "median" in out

    def test_overhead(self, capsys):
        assert main(["overhead"]) == 0
        out = capsys.readouterr().out
        assert "bzip2" in out and "average full overhead" in out

    def test_recovery(self, capsys):
        assert main(["recovery"]) == 0
        out = capsys.readouterr().out
        assert "1900 ns" in out or "1,900" in out

    def test_campaign_smoke(self, capsys):
        """A miniature campaign end to end through the CLI."""
        assert main(["campaign", "--injections", "120", "--scale", "0.03",
                     "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 8" in out and "Table II" in out

    def test_campaign_save_and_reanalyze(self, capsys, tmp_path):
        path = str(tmp_path / "records.jsonl")
        assert main(["campaign", "--injections", "80", "--scale", "0.03",
                     "--seed", "2", "--output", path]) == 0
        first = capsys.readouterr().out
        assert "records written" in first
        assert main(["campaign", "--records-from", path]) == 0
        second = capsys.readouterr().out
        assert "Fig. 8" in second
        # Re-analysis reproduces the same coverage rows.
        assert first.split("Fig. 8")[1] == second.split("Fig. 8")[1]

    def test_campaign_journal_and_resume(self, capsys, tmp_path):
        """A journalled campaign resumes (fully satisfied from the journal)
        and the journal re-analyzes like a records file."""
        journal = str(tmp_path / "trials.jsonl")
        argv = ["campaign", "--injections", "80", "--scale", "0.03",
                "--seed", "2", "--journal", journal]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "journal at" in first
        assert (tmp_path / "trials.jsonl.manifest.json").exists()
        assert main(argv + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert first.split("Fig. 8")[1] == resumed.split("Fig. 8")[1]
        assert main(["campaign", "--records-from", journal]) == 0
        reread = capsys.readouterr().out
        assert "trials durable (100%)" in reread
        assert first.split("Fig. 8")[1] == reread.split("Fig. 8")[1]

    def test_campaign_chaos_recovers_to_serial_figures(self, capsys):
        """Transient chaos crashes: retries succeed, figures match serial."""
        argv = ["campaign", "--injections", "80", "--scale", "0.03", "--seed", "2"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--chaos", "crash=0.5,seed=2", "--retries", "6"]) == 0
        captured = capsys.readouterr()
        assert serial.split("Fig. 8")[1] == captured.out.split("Fig. 8")[1]
        assert "retry" in captured.err

    def test_campaign_exhausted_budget_exits_degraded(self, capsys):
        """Persistent chaos: quarantine everything, exit 3 with a summary."""
        assert main(["campaign", "--injections", "40", "--scale", "0.03",
                     "--seed", "2", "--chaos", "crash=1.0,seed=1",
                     "--retries", "1"]) == 3
        captured = capsys.readouterr()
        assert "QUARANTINED" in captured.err
        assert "DEGRADED:" in captured.err
        assert "shards quarantined" in captured.err

    def test_campaign_resume_requires_journal(self, capsys):
        assert main(["campaign", "--resume"]) == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_train_saves_deployable_rules(self, capsys, tmp_path):
        path = str(tmp_path / "rules.json")
        assert main(["train", "--scale", "0.03", "--seed", "2",
                     "--save-rules", path]) == 0
        from repro.persist import load_rules

        rules = load_rules(path)
        assert rules.n_nodes >= 1

    def test_train_jobs_matches_serial(self, capsys):
        """--jobs 2 through the CLI reports identical classifier figures."""
        argv = ["train", "--scale", "0.03", "--seed", "2"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        pooled = capsys.readouterr().out
        # Everything between the dataset summaries and the timing footer —
        # class counts and both confusion reports — must match exactly.
        assert serial.split("(paper")[0] == pooled.split("(paper")[0]

    @pytest.fixture(scope="class")
    def saved_model(self, tmp_path_factory):
        """A tiny trained artifact for the serve tests."""
        path = tmp_path_factory.mktemp("serve") / "model.json"
        assert main(["train", "--scale", "0.02", "--seed", "2",
                     "--save-model", str(path)]) == 0
        return str(path)

    def test_serve_requires_stop_condition(self, capsys, tmp_path):
        assert main(["serve", "--model", "m.json"]) == 2
        assert "stop condition" in capsys.readouterr().err

    def test_serve_scores_the_fleet(self, capsys, saved_model):
        assert main(["serve", "--model", saved_model, "--seed", "7",
                     "--hosts", "6", "--max-rows", "3000", "--no-http"]) == 0
        out = capsys.readouterr().out
        assert "scored 3,000 rows" in out
        assert "detections:" in out and "p99" in out

    def test_serve_summary_is_batch_invariant(self, capsys, saved_model,
                                              tmp_path):
        """The CLI-level determinism contract: fixed seed + --max-rows =>
        identical totals across runs and --batch-rows settings."""
        import json as json_mod

        summaries = []
        for batch, name in (("64", "a.json"), ("64", "b.json"),
                            ("700", "c.json")):
            path = str(tmp_path / name)
            assert main(["serve", "--model", saved_model, "--seed", "7",
                         "--hosts", "6", "--max-rows", "3000", "--no-http",
                         "--batch-rows", batch, "--summary", path]) == 0
            summaries.append(json_mod.loads((tmp_path / name).read_text()))
        capsys.readouterr()
        assert summaries[0] == summaries[1] == summaries[2]
        assert summaries[0]["totals"]["rows_scored"] == 3000

    def test_serve_interrupt_summarizes_the_whole_run(
        self, capsys, saved_model, tmp_path, monkeypatch
    ):
        """Ctrl-C while the progress line prints: the run drains and its
        summary counts every tick that ran, timed from the start."""
        import json as json_mod
        import sys

        class InterruptingStderr:
            def __init__(self, stream):
                self.stream = stream
                self.fired = False

            def write(self, text):
                if "rows emitted" in text and not self.fired:
                    self.fired = True
                    raise KeyboardInterrupt
                return self.stream.write(text)

            def flush(self):
                self.stream.flush()

        monkeypatch.setattr(sys, "stderr", InterruptingStderr(sys.stderr))
        path = tmp_path / "summary.json"
        assert main(["serve", "--model", saved_model, "--seed", "7",
                     "--hosts", "20", "--max-rows", "1000000", "--no-http",
                     "--summary", str(path)]) == 0
        summary = json_mod.loads(path.read_text())
        assert summary["ticks"] == 256
        totals = summary["totals"]
        assert totals["rows_scored"] + totals["rows_dropped"] \
            == summary["rows_emitted"] > 0
        assert "256 ticks" in capsys.readouterr().out

    def test_serve_endpoint_scrapes_during_run(self, capsys, saved_model):
        import urllib.request

        assert main(["serve", "--model", saved_model, "--seed", "7",
                     "--hosts", "4", "--max-rows", "2000"]) == 0
        out = capsys.readouterr().out
        assert "serving /metrics and /healthz at http://" in out

        # Scrape an endpoint for real (bound to an ephemeral port).
        from repro.service import DetectionService, FleetConfig, ServiceConfig
        from repro.persist import load_model

        service = DetectionService(
            ServiceConfig(fleet=FleetConfig(hosts=2, seed=7), max_rows=500),
            load_model(saved_model),
        )
        service.run()
        server = service.endpoint().start()
        try:
            with urllib.request.urlopen(f"{server.url}/healthz", timeout=5) as r:
                body = r.read()
            # A run that produced positive detections reports itself degraded
            # (recoveries are being dispatched); a detection-free run is ok.
            expected = (b'"status": "degraded"'
                        if service.scorer.totals.detections
                        else b'"status": "ok"')
            assert expected in body
            with urllib.request.urlopen(f"{server.url}/metrics", timeout=5) as r:
                assert b"repro_rows_scored_total" in r.read()
        finally:
            server.stop()

    def test_train_journal_rebuild_and_model(self, capsys, tmp_path):
        """Journalled collection, offline re-training from the journals, and
        the saved model artifact all agree."""
        journal_dir = str(tmp_path / "runs")
        model_path = str(tmp_path / "model.json")
        assert main(["train", "--scale", "0.03", "--seed", "2",
                     "--journal-dir", journal_dir,
                     "--save-model", model_path]) == 0
        first = capsys.readouterr().out
        assert "sample journals at" in first
        assert (tmp_path / "runs" / "train.samples.jsonl").exists()
        assert (tmp_path / "runs" / "train.samples.jsonl.manifest.json").exists()
        assert main(["train", "--datasets-from", journal_dir]) == 0
        rebuilt = capsys.readouterr().out
        assert "rebuilt from sample journals" in rebuilt
        assert first.split("(paper")[0].split("train:")[1] == \
            rebuilt.split("(paper")[0].split("train:")[1]
        from repro.persist import load_model

        artifact = load_model(model_path)
        assert artifact.name == "random_tree"
        assert 0.0 < artifact.evaluation["accuracy"] <= 1.0


class TestScenarioCLI:
    """The --scenario flag: happy path, provenance on errors, byte-identity."""

    MIXED_YAML = (
        "faults:\n"
        "  register:\n    probability: 0.5\n"
        "  multibit:\n    probability: 0.2\n    n_bits: 3\n"
        "  burst:\n    probability: 0.2\n    n_flips: 3\n"
        "  memory:\n    probability: 0.1\n"
    )

    def test_parser_accepts_scenario(self):
        args = build_parser().parse_args(
            ["campaign", "--scenario", "examples/mixed.yaml"]
        )
        assert args.scenario == "examples/mixed.yaml"

    def test_mixed_scenario_reports_per_class_coverage(self, capsys, tmp_path):
        pytest.importorskip("yaml")
        path = tmp_path / "mixed.yaml"
        path.write_text(self.MIXED_YAML)
        assert main(["campaign", "--scenario", str(path), "--injections",
                     "120", "--scale", "0.03", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "scenario: mixed: register 50%" in out
        assert "Fig. 8b — coverage by fault class" in out
        assert "burst" in out and "memory" in out

    def test_bad_scenario_exits_2_with_provenance(self, capsys, tmp_path):
        pytest.importorskip("yaml")
        path = tmp_path / "bad.yaml"
        path.write_text("faults:\n  register:\n    subsystem: scheduler\n")
        assert main(["campaign", "--scenario", str(path), "--injections",
                     "50", "--scale", "0.03"]) == 2
        err = capsys.readouterr().err
        # The error names the file and the dotted key path (the provenance
        # satellite), so the user can fix the scenario without digging.
        assert str(path) in err
        assert "faults.register.subsystem" in err

    def test_missing_scenario_file_exits_2(self, capsys, tmp_path):
        pytest.importorskip("yaml")
        missing = str(tmp_path / "nope.yaml")
        assert main(["campaign", "--scenario", missing]) == 2
        assert missing in capsys.readouterr().err

    def test_degenerate_scenario_matches_plain_campaign(self, capsys, tmp_path):
        pytest.importorskip("yaml")
        scenario = tmp_path / "baseline.yaml"
        scenario.write_text("faults:\n  register:\n    probability: 1.0\n")
        plain, via = str(tmp_path / "plain.jsonl"), str(tmp_path / "scn.jsonl")
        assert main(["campaign", "--injections", "80", "--scale", "0.03",
                     "--seed", "2", "--output", plain]) == 0
        assert main(["campaign", "--scenario", str(scenario), "--injections",
                     "80", "--scale", "0.03", "--seed", "2",
                     "--output", via]) == 0
        capsys.readouterr()
        with open(plain, "rb") as a, open(via, "rb") as b:
            assert a.read() == b.read()
