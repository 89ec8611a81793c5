"""The batch verification harness: determinism, exit codes, witnesses."""

import hashlib
import json
import random

import pytest

from spinalg import cartan
from spinalg import cli
from spinalg import grassmann_cone as gc
from spinalg import suites
from spinalg.errors import IndexRangeError, StructureError
from spinalg.suites import KNOWN_ANCHORS, run_checks
from spinalg.transfer_maps import DENSE_LEVEL_BOUND


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

    @pytest.mark.parametrize(
        "n_min, n_max", [(0, 0), (0, 2), (3, 2), (1, DENSE_LEVEL_BOUND + 1), (-1, 1)]
    )
    def test_run_checks_rejects_the_ranges_the_cli_rejects(self, n_min, n_max):
        assert small_config(suite="all", n_min=n_min, n_max=n_max).validate()
        with pytest.raises(IndexRangeError):
            run_checks("all", n_min, n_max, 7, 1, False)

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
# (cone and theorem61: when group words still ran on Fractions; lowering:
# when the exterior audit still rebuilt its sum once per monomial)
GOLDEN_REPORTS = {
    "clifford": "30b422335e25c0b5dd27048956d8f2bd6a4dca57946a59f7b6c8f396bd180575",
    "spinrep": "ef6de749bc7feef162d9372443d1d258ce6d3f75b37809477f2899d320a0822f",
    "transfer": "809017cd1fc85397fd892940d1006f46f397e802da12aa9c8f0630b7fe2de0f1",
    "cartan": "2d480d3797240861fc3b4c6d63ae63a6d692c82d82b657e2150637ead8e1130a",
    "cone": "e6fe0d09caa54e40b8d98fdf81959ab577248a7755d92eedb71a4459f5f6d73c",
    "lowering": "498fbb9f9d101c105ee48d7ae22684ad524013a4e6c20e4efcbceb46e8de24d0",
    "theorem61": "3cba025bd1d3cee9a23ef70c2c55c7d039a1da08efa75f27316e30e22280f254",
}


@pytest.mark.parametrize("suite", sorted(GOLDEN_REPORTS))
def test_report_matches_golden_digest(suite):
    config = cli.SuiteConfig(suite, 1, 5, 7, 1, None, False)
    doc = cli.run_suite(config).to_document()
    assert hashlib.sha256(doc.encode()).hexdigest() == GOLDEN_REPORTS[suite]


# the suites again at n = 1..6: theorem61 and lowering run the level-4
# discovery, the 120-member level-6 pullback family and the level-6 root
# tables; clifford, spinrep, transfer and cartan run the letter kernel on
# the dense level-6 products and the level-6 nu2 pair table; cone runs
# omega_of and adapted_basis on the subspaces of every level
GOLDEN_REPORTS_N6 = {
    "cartan": "153e98bba2422eaee87d6cba0d9f624735b88a3f86f14d5a96f6015afa5bbf6b",
    "clifford": "771a409a7f281f5c8a99f1621f3cf0103f38a845e4c4d945b6b08134cd311c7e",
    "cone": "8b1911eac8f90711aa0b775255312b015a9125d2282517037ecdf576173f4a83",
    "lowering": "783a5dea591ba4a8b0d3360f131252cf9243db7a012c2fe141077ceb90037124",
    "spinrep": "a58e01f80560652eebd200fbe5e73fbe85e36df9983453b65904c99fdef29430",
    "theorem61": "a53374eb27c62f8b2d5f0b6260f7279388c4beb622aac4eeffd02cc34293f084",
    "transfer": "557b1123d450c0175ef31e9b3aed37d793b132be4a0d737623111326bbc0724d",
}


@pytest.mark.parametrize("suite", sorted(GOLDEN_REPORTS_N6))
def test_report_matches_golden_digest_at_level_six(suite):
    config = cli.SuiteConfig(suite, 1, 6, 7, 1, None, False)
    doc = cli.run_suite(config).to_document()
    assert hashlib.sha256(doc.encode()).hexdigest() == GOLDEN_REPORTS_N6[suite]


# sha256 of `spinalg --suite S --n-min 1 --n-max 6 --seed 7` at the default
# --samples 25, recorded while bracket-compatibility, group operators and
# the twist residual still went one basis vector at a time and equivariance
# applied each root to one basis vector at a time: at the default samples
# bracket-compatibility compares 500 pairs, at --samples 1 only 20
GOLDEN_REPORTS_DEFAULT_SAMPLES = {
    "spinrep": "164965f6e9dd320467c684945f5d4160d6601d3696fa2b4c68e3a520657a941c",
    "transfer": "5133f6e85f1c8b0c644fbec60307a2c9f99335a007de1ebff39d4add56b3f307",
}


@pytest.mark.parametrize("suite", sorted(GOLDEN_REPORTS_DEFAULT_SAMPLES))
def test_report_matches_golden_digest_at_default_samples(suite):
    config = cli.SuiteConfig(suite, 1, 6, 7, 25, None, False)
    doc = cli.run_suite(config).to_document()
    assert hashlib.sha256(doc.encode()).hexdigest() == GOLDEN_REPORTS_DEFAULT_SAMPLES[suite]


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


class TestRegistry:
    """run_checks reads each check's levels from its _SUITES row and turns
    the check's witness (or None) into the report status."""

    def register(self, monkeypatch, fn, **levels):
        row = suites.Check("probe", "eq:pi&tau", fn, **levels)
        monkeypatch.setattr(suites, "_SUITES", {"probe": [row]})

    def test_levels_outside_the_row_are_skipped_without_a_call(self, monkeypatch):
        calls = []

        def check(n, seed, samples):
            calls.append(n)
            raise ZeroDivisionError(f"called at level {n}")

        self.register(
            monkeypatch, check, domain=(2, 5, "defined at 2..5"), cost=(3, "bounded to n <= 3")
        )
        results = run_checks("probe", 1, 6, 7, 25, False)
        crash = "exception: ZeroDivisionError in spinalg.suites.run_checks: called at level"
        assert [(r.n, r.status, r.witness) for r in results] == [
            (1, "skipped", "defined at 2..5"),
            (2, "fail", f"{crash} 2"),
            (3, "fail", f"{crash} 3"),
            (4, "skipped", "bounded to n <= 3"),
            (5, "skipped", "bounded to n <= 3"),
            (6, "skipped", "defined at 2..5"),
        ]
        assert calls == [2, 3]

    def test_a_returned_string_is_the_failure_witness(self, monkeypatch):
        self.register(monkeypatch, lambda n, seed, samples: f"broke at {n}" if n >= 3 else None)
        results = run_checks("probe", 1, 6, 7, 25, True)
        assert [(r.n, r.status, r.witness) for r in results] == [
            (1, "pass", None),
            (2, "pass", None),
            (3, "fail", "broke at 3"),
        ]

    def test_none_is_a_pass(self, monkeypatch):
        self.register(monkeypatch, lambda n, seed, samples: None)
        results = run_checks("probe", 1, 6, 7, 25, True)
        assert [r.status for r in results] == ["pass"] * 6
        assert all(r.witness is None for r in results)


# the report cells at desk scale that a row skips only for cost: every level
# of the check's domain above its cost limit, up to the dense bound
COST_LIMITED_CELLS = [
    pytest.param(check, n, id=f"{suite}/{check.name}/{n}")
    for suite, rows in sorted(suites._SUITES.items())
    for check in rows
    if check.cost is not None
    for n in range(1, DENSE_LEVEL_BOUND + 1)
    if check.skip_reason(n) == check.cost[1]
]


@pytest.mark.parametrize("check, n", COST_LIMITED_CELLS)
def test_cost_limited_cell_passes(check, n):
    assert check.fn(n, 7, 25) is None


@pytest.mark.parametrize("n", [2, 3])
def test_isotropic_draws_are_bounded(n, monkeypatch):
    # subspaces that are all F have no row off F: the draws end after a
    # fixed number instead of hanging the run
    monkeypatch.setattr(gc, "random_maximal_isotropic", lambda n, seed, length=6: gc.coordinate_subspace(n, 0))
    with pytest.raises(StructureError, match=f"^no isotropic vector off F at level {n} in {suites.ISOTROPIC_DRAWS} draws$"):
        suites._random_isotropic_not_in_f(n, random.Random(0))
