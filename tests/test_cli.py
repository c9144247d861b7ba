"""Tests for the csaw-sim command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_seed_accepted_after_subcommand(self):
        args = build_parser().parse_args(["wave", "--seed", "9"])
        assert args.seed == 9

    def test_pilot_options(self):
        args = build_parser().parse_args(
            ["pilot", "--users", "10", "--days", "5", "--ases", "4"]
        )
        assert (args.users, args.days, args.ases) == (10, 5.0, 4)


class TestCommands:
    def test_quickstart_runs(self, capsys):
        assert main(["quickstart", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "quickstart" in out
        assert "https" in out  # converged onto the local fix

    def test_casestudy_runs(self, capsys):
        assert main(["casestudy"]) == 0
        out = capsys.readouterr().out
        assert "ISP-A" in out and "ISP-B" in out
        assert "dns-redirect" in out

    def test_wave_runs(self, capsys):
        assert main(["wave"]) == 0
        out = capsys.readouterr().out
        assert "Twitter" in out and "Instagram" in out

    def test_oni_runs(self, capsys):
        assert main(["oni", "--domains", "20"]) == 0
        out = capsys.readouterr().out
        assert "AS30873" in out

    def test_blockpages_runs(self, capsys):
        assert main(["blockpages"]) == 0
        out = capsys.readouterr().out
        assert "phase-1 recall" in out

    @pytest.mark.parametrize("argv,field", [
        (["pilot", "--users", "2", "--ases", "0"], "n_ases"),
        (["pilot", "--users", "2", "--sites", "0"], "n_sites"),
        (["pilot", "--users", "2", "--days", "-1"], "duration_days"),
        (["pilot", "--users", "2", "--days", "nan"], "duration_days"),
        (["oni", "--domains", "-3"], "domains_per_as"),
        (["pilot", "--users", "0", "--sites", "50", "--days", "1",
          "--ases", "1"], "n_users"),
        (["pilot", "--users", "-2", "--sites", "50", "--days", "1",
          "--ases", "1"], "n_users"),
        (["blockpages", "--isps", "0"], "n_isps"),
        (["blockpages", "--isps", "-3"], "n_isps"),
    ])
    def test_bad_size_exits_2_naming_the_field(self, capsys, argv, field):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert field in captured.err and not captured.out

    def test_small_pilot_runs(self, capsys):
        assert main(
            ["pilot", "--users", "6", "--days", "8", "--sites", "120",
             "--ases", "3", "--seed", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "No. of users" in out


class TestScenarioCommands:
    def test_list_names_all_shipped_packs(self, capsys):
        from repro.scenarios import shipped_packs

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name, _ in shipped_packs():
            assert name in out

    def test_run_pack_by_name_prints_report(self, capsys):
        assert main(["scenario", "run", "vantage-disagreement"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "classification" in out

    def test_run_pack_by_path(self, capsys, tmp_path):
        from repro.scenarios import shipped_packs

        path = dict(shipped_packs())["sybil-flood"]
        assert main(["scenario", "run", path]) == 0
        out = capsys.readouterr().out
        assert "reputation" in out

    def test_run_unknown_pack_errors(self, capsys):
        assert main(["scenario", "run", "no-such-pack"]) == 2
        err = capsys.readouterr().err
        assert "no-such-pack" in err
        assert "vantage-disagreement" in err  # names the shipped packs

    def test_run_malformed_pack_exits_2_naming_the_key(self, capsys, tmp_path):
        spec = tmp_path / "bad.toml"
        spec.write_text(
            """
name = "bad"

[[sites]]
hostname = "open.example.com"
size_bytes = "abc"
"""
        )
        assert main(["scenario", "run", str(spec)]) == 2
        assert "sites[0].size_bytes" in capsys.readouterr().err

    def test_run_pack_with_stale_reporter_fraction_exits_2(
        self, capsys, tmp_path
    ):
        from repro.scenarios import shipped_packs

        with open(dict(shipped_packs())["low-penetration-country"]) as handle:
            text = handle.read()
        spec = tmp_path / "stale.toml"
        spec.write_text(
            text.replace("[cohort]\n", "[cohort]\nreporter_fraction = 0.005\n", 1)
        )
        assert main(["scenario", "run", str(spec)]) == 2
        assert "cohort: unknown key(s) ['reporter_fraction']" in (
            capsys.readouterr().err
        )

    def test_run_pack_with_a_syntax_error_exits_2_naming_the_line(
        self, capsys, tmp_path
    ):
        spec = tmp_path / "bad.toml"
        spec.write_text('name = "bad"\nb = {inline =\n')
        assert main(["scenario", "run", str(spec)]) == 2
        err = capsys.readouterr().err
        assert "bad.toml: " in err and "line 2" in err

    def test_run_failing_expectations_exits_nonzero(self, capsys, tmp_path):
        spec = tmp_path / "wrong.toml"
        spec.write_text(
            """
name = "wrong"
description = "deliberately wrong expectation"

[[sites]]
hostname = "open.example.com"

[[ases]]
asn = 64900

[[expect.verdict]]
url = "http://open.example.com/"
asn = 64900
status = "blocked"
"""
        )
        assert main(["scenario", "run", str(spec)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "expected" in out and "observed" in out

    def test_run_all_records_timings(self, capsys, tmp_path):
        import json

        from repro.scenarios import shipped_packs

        record = tmp_path / "times.json"
        assert main(["scenario", "run-all", "--record", str(record)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == len(shipped_packs())
        data = json.loads(record.read_text())
        packs = {entry["pack"] for entry in data["packs"]}
        assert packs == {name for name, _ in shipped_packs()}
        assert all(entry["seconds"] >= 0 for entry in data["packs"])

    def test_run_all_record_exits_nonzero_on_failing_pack(
        self, capsys, tmp_path, monkeypatch
    ):
        """--record must not mask a failing pack: a non-empty expectation
        diff exits 1, and the record file still lands with ok=false."""
        import json

        import repro.scenarios as scenarios

        bad = tmp_path / "wrong_pack.toml"
        bad.write_text(
            """
name = "wrong-pack"
description = "deliberately wrong expectation"

[[sites]]
hostname = "open.example.com"

[[ases]]
asn = 64900

[[expect.verdict]]
url = "http://open.example.com/"
asn = 64900
status = "blocked"
"""
        )
        monkeypatch.setattr(
            scenarios, "shipped_packs",
            lambda: [("wrong-pack", str(bad))],
        )
        record = tmp_path / "times.json"
        assert main(["scenario", "run-all", "--record", str(record)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "wrong-pack:" in out  # the diff is printed per failing pack
        data = json.loads(record.read_text())
        assert data["packs"][0]["ok"] is False
        assert data["packs"][0]["failures"] >= 1
