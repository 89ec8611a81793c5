"""The batch verification harness: determinism, exit codes, witnesses."""

import hashlib
import json

import pytest

from spinalg import cartan
from spinalg import cli
from spinalg.suites import KNOWN_ANCHORS, run_checks


def small_config(**extra):
    base = dict(
        suite="transfer",
        n_min=1,
        n_max=2,
        seed=5,
        samples=10,
        out=None,
        fail_fast=False,
    )
    base.update(extra)
    return cli.SuiteConfig(**base)


class TestReports:
    def test_byte_identical_documents(self):
        a = cli.run_suite(small_config()).to_document()
        b = cli.run_suite(small_config()).to_document()
        assert a == b

    def test_document_shape_and_anchors(self):
        report = cli.run_suite(small_config())
        doc = json.loads(report.to_document())
        assert doc["tool"]["name"] == "spinalg"
        keys = [(c["suite"], c["n"], c["name"]) for c in doc["checks"]]
        assert keys == sorted(keys)
        for c in doc["checks"]:
            assert c["status"] in ("pass", "fail", "skipped")
            assert c["anchor"] in KNOWN_ANCHORS
            if c["status"] == "skipped":
                assert c["witness"]

    def test_empty_check_list_is_valid(self):
        report = cli.Report(tool_version="0.0", config=small_config(), checks=())
        doc = json.loads(report.to_document())
        assert doc["checks"] == []
        assert doc["summary"] == {"pass": 0, "fail": 0, "skipped": 0}

    def test_emit_to_file(self, tmp_path):
        path = tmp_path / "report.json"
        report = cli.run_suite(small_config())
        cli.emit_report(report, str(path))
        assert json.loads(path.read_text())["summary"]["fail"] == 0


class TestExitCodes:
    def test_all_pass(self, tmp_path, capsys):
        rc = cli.main(
            [
                "--suite",
                "transfer",
                "--n-max",
                "2",
                "--samples",
                "5",
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert rc == cli.EXIT_OK

    def test_unknown_suite(self):
        assert cli.main(["--suite", "nonsense"]) == cli.EXIT_CONFIG

    def test_bad_range(self):
        assert cli.main(["--n-min", "3", "--n-max", "2"]) == cli.EXIT_CONFIG
        assert cli.main(["--n-max", "9"]) == cli.EXIT_CONFIG

    def test_corrupted_sign_produces_witness(self, tmp_path, monkeypatch):
        # simulate a broken build: flip the diagram sign convention
        original = cartan._parity_sign
        monkeypatch.setattr(cartan, "_parity_sign", lambda n, p: -original(n, p))
        rc = cli.main(
            [
                "--suite",
                "cartan",
                "--n-min",
                "2",
                "--n-max",
                "2",
                "--samples",
                "4",
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert rc == cli.EXIT_FAILURES
        doc = json.loads((tmp_path / "r.json").read_text())
        failing = [c for c in doc["checks"] if c["status"] == "fail"]
        assert failing
        assert all(c["witness"] for c in failing)

    def test_crash_witness_keeps_type_and_site(self, monkeypatch):
        def broken_sign(n, parity):
            raise ZeroDivisionError("sign table lost")

        # the diagram checks crash inside cartan; the patched function lives
        # outside spinalg, so the innermost spinalg frame is its caller
        monkeypatch.setattr(cartan, "_parity_sign", broken_sign)
        results = run_checks("cartan", 2, 2, 5, 4, False)
        crashed = [(r.name, r.status, r.witness) for r in results if r.status != "pass"]
        assert crashed == [
            (
                name,
                "fail",
                f"exception: ZeroDivisionError in spinalg.cartan.{fn}: sign table lost",
            )
            for name, fn in (
                ("contraction-diagram", "diagram_pi_residual"),
                ("multiplication-diagram", "diagram_tau_residual"),
            )
        ]

    def test_fail_fast_stops_early(self, tmp_path, monkeypatch):
        original = cartan._parity_sign
        monkeypatch.setattr(cartan, "_parity_sign", lambda n, p: -original(n, p))
        rc = cli.main(
            [
                "--suite",
                "cartan",
                "--n-min",
                "2",
                "--n-max",
                "2",
                "--samples",
                "4",
                "--fail-fast",
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert rc == cli.EXIT_FAILURES
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["summary"]["fail"] == 1
        # stopped before finishing the six-check suite
        assert len(doc["checks"]) < 6


# sha256 of `spinalg --suite S --n-min 1 --n-max 5 --seed 7 --samples 1`,
# recorded when beta and nu2 were still computed through Clifford products
GOLDEN_REPORTS = {
    "clifford": "30b422335e25c0b5dd27048956d8f2bd6a4dca57946a59f7b6c8f396bd180575",
    "spinrep": "ef6de749bc7feef162d9372443d1d258ce6d3f75b37809477f2899d320a0822f",
    "transfer": "809017cd1fc85397fd892940d1006f46f397e802da12aa9c8f0630b7fe2de0f1",
    "cartan": "2d480d3797240861fc3b4c6d63ae63a6d692c82d82b657e2150637ead8e1130a",
}


@pytest.mark.parametrize("suite", sorted(GOLDEN_REPORTS))
def test_report_matches_golden_digest(suite):
    config = cli.SuiteConfig(suite, 1, 5, 7, 1, None, False)
    doc = cli.run_suite(config).to_document()
    assert hashlib.sha256(doc.encode()).hexdigest() == GOLDEN_REPORTS[suite]


class TestSkipping:
    def test_out_of_domain_levels_are_skipped(self):
        report = cli.run_suite(
            cli.SuiteConfig(
                suite="theorem61",
                n_min=1,
                n_max=2,
                seed=1,
                samples=2,
                out=None,
                fail_fast=False,
            )
        )
        assert report.counts["fail"] == 0
        assert report.counts["pass"] == 0
        assert report.counts["skipped"] > 0
