"""CLI contract: commands, exit codes, report schema, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from quivercover import tautilt
from quivercover.cli import main
from quivercover.modules import ISO_SEED, decompose, direct_sum, projective_at
from quivercover.report import CLAIM_IDS, VerificationReport, dumps_report, loads_report

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "golden")


def golden(name):
    return os.path.join(GOLDEN, name + ".json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", "--input", golden("n32"))
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["vertices"] == 3


def test_validate_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "field": {"kind": "prime", "p": 32003},
                "group": {"kind": "free-abelian", "rank": 1},
                "vertices": ["1", "2", "3"],
                "arrows": [
                    {"id": "a", "src": "1", "tgt": "2", "weight": [1]},
                    {"id": "b", "src": "2", "tgt": "3", "weight": [1]},
                    {"id": "c", "src": "1", "tgt": "2", "weight": [0]},
                    {"id": "d", "src": "2", "tgt": "3", "weight": [0]},
                ],
                "relations": [
                    [
                        {"coeff": "1", "path": ["a", "b"]},
                        {"coeff": "-1", "path": ["c", "d"]},
                    ]
                ],
                "nilbound": 2,
            }
        )
    )
    code, _, err = run(capsys, "validate", "--input", str(bad))
    assert code == 2
    assert "InhomogeneousRelation" in err


def test_usage_error(capsys):
    assert main(["check", "--input", golden("n32")]) == 2  # missing --claim


def test_check_exit_zero_and_report_roundtrip(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "--input",
        golden("n32"),
        "--claim",
        "Main1",
        "--n",
        "1",
        "--window",
        "6",
    )
    assert code == 0
    doc = json.loads(out)
    rep = VerificationReport.from_json_dict(doc)
    assert rep.passed
    assert json.loads(dumps_report(rep)) == json.loads(dumps_report(loads_report(dumps_report(rep))))


def test_check_determinism(capsys):
    argv = [
        "check",
        "--input",
        golden("loop2"),
        "--claim",
        "Corres",
        "--n",
        "1",
        "--window",
        "4",
        "--seed",
        "7",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical


def test_check_not_applicable_exit_code(tmp_path, capsys):
    # Kronecker-type input: BonGab hypothesis unmet -> exit 3
    doc = {
        "field": {"kind": "prime", "p": 32003},
        "group": {"kind": "free-abelian", "rank": 0},
        "vertices": ["1", "2"],
        "arrows": [
            {"id": "a", "src": "1", "tgt": "2", "weight": []},
            {"id": "b", "src": "1", "tgt": "2", "weight": []},
        ],
        "relations": [],
        "nilbound": 1,
    }
    path = tmp_path / "kron.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(
        capsys, "check", "--input", str(path), "--claim", "BonGab", "--n", "1"
    )
    assert code == 3
    assert json.loads(out)["pass"] == "not-applicable"


def test_indecs_listing(capsys):
    code, out, _ = run(capsys, "indecs", "--input", golden("n32"))
    assert code == 0
    listing = json.loads(out)
    assert len(listing) == 6
    for entry in listing:
        assert set(entry) >= {"id", "dims", "arrowmaps", "decomposition"}


def test_orbit_command(capsys):
    code, out, _ = run(
        capsys,
        "orbit",
        "--input",
        golden("sixcycle"),
        "--action",
        os.path.join(GOLDEN, "sixcycle_action.json"),
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 3
    assert len(doc["arrows"]) == 3
    assert doc["group"] == {"kind": "cyclic", "m": 2}


def test_pushdown_command(tmp_path, capsys):
    # the covering simple at shift 2 pushes down to the base simple
    mod = {"dims": {"2@2": 1}, "arrowmaps": {}}
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(mod))
    code, out, _ = run(
        capsys,
        "pushdown",
        "--input",
        golden("n32"),
        "--window",
        "4",
        "--module",
        str(path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == {"2": 1}


def test_enumerate_tilting_command(capsys):
    code, out, _ = run(
        capsys, "enumerate-tilting", "--input", golden("n32"), "--n", "1", "--dimcap", "8"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["pairs"]) == 14


def test_text_format(capsys):
    code, out, _ = run(
        capsys, "validate", "--input", golden("ka2"), "--format", "text"
    )
    assert code == 0
    assert "vertices: 2" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "check",
        "--input",
        golden("ka2"),
        "--claim",
        "Corres",
        "--n",
        "1",
        "--out",
        str(target),
    )
    assert code == 0
    assert json.loads(target.read_text()) == json.loads(out)


def test_exit_code_mapping():
    assert VerificationReport("Main1", {}, True).exit_code() == 0
    assert VerificationReport("Main1", {}, False).exit_code() == 1
    assert VerificationReport("Main1", {}, "not-applicable").exit_code() == 3
    assert VerificationReport("Main1", {}, "indeterminate").exit_code() == 3


def test_suite_reports_every_claim_when_claims_raise(capsys):
    # at n = 2 on a window of half-width 3 TiltingPushdown raises on its
    # ambient; it is reported, and no claim runs out of the small window
    code, out, _ = run(
        capsys, "suite", "--input", golden("loop2"), "--n", "2", "--window", "3"
    )
    assert code == 3
    reports = json.loads(out)
    assert [r["claim"] for r in reports] == list(CLAIM_IDS)
    assert not any(
        note.startswith("WindowTooSmall") for r in reports for note in r.get("notes", [])
    )
    assert reports[CLAIM_IDS.index("Main2")]["pass"] is True
    tilting = reports[CLAIM_IDS.index("TiltingPushdown")]
    assert tilting["pass"] == "not-applicable"
    assert tilting["notes"][0].startswith("AmbientNotClusterTilting: ")


@pytest.mark.parametrize("name", ["loop2", "n32"])
def test_n2_suite_stays_inside_the_covering(capsys, name):
    # translates and twists of window border modules leave the window box;
    # the covering carrier has them, so Main2 and ModPushdown are decided
    code, out, _ = run(capsys, "suite", "--input", golden(name), "--n", "2", "--window", "6")
    assert code == 3
    reports = {r["claim"]: r for r in json.loads(out)}
    assert reports["Main2"]["pass"] is True
    assert reports["ModPushdown"]["pass"] is True
    assert not any(
        note.startswith("WindowTooSmall") for r in reports.values() for note in r.get("notes", [])
    )


def test_unmet_ambient_hypothesis_is_not_applicable(capsys):
    code, out, _ = run(
        capsys, "check", "--input", golden("ka2"), "--claim", "TiltingPushdown",
        "--n", "2", "--window", "6",
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["pass"] == "not-applicable"
    assert doc["notes"][0].startswith("AmbientNotClusterTilting: ")


def test_ambients_certified_once_per_claim(capsys, monkeypatch):
    calls = []
    original = tautilt.is_n_cluster_tilting

    def counting(*a, **kw):
        calls.append(a)
        return original(*a, **kw)

    monkeypatch.setattr(tautilt, "is_n_cluster_tilting", counting)
    code, _, _ = run(
        capsys, "check", "--input", golden("loop2"), "--claim", "TiltingPushdown",
        "--n", "1", "--window", "6",
    )
    assert code == 0
    assert len(calls) == 2  # the upstairs and the downstairs ambient


def _mod_pushdown(capsys, name, *window):
    code, out, _ = run(
        capsys, "check", "--input", golden(name), "--claim", "ModPushdown", "--n", "1", *window
    )
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize("name", ["n32", "loop2"])
def test_mod_pushdown_report_is_window_independent(capsys, name):
    reports = []
    for window in (("--window", "4"), ("--window", "6"), ()):
        doc = _mod_pushdown(capsys, name, *window)
        del doc["instance"]["window_halfwidth"]
        reports.append(doc)
    assert reports[0] == reports[1] == reports[2]
    assert reports[0]["pass"] is True


@pytest.mark.parametrize("name", ["n32", "loop2"])
def test_mod_pushdown_hom_basis_calls_are_window_independent(capsys, monkeypatch, name):
    # the upstairs category computes hom bases on demand, so no count grows
    # with the window; every module-level binding of hom_basis is wrapped
    import quivercover

    original = quivercover.modules.hom_basis
    calls = []

    def counting(*a, **kw):
        calls.append(None)
        return original(*a, **kw)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("quivercover") and getattr(module, "hom_basis", None) is original:
            monkeypatch.setattr(module, "hom_basis", counting)
    counts = []
    for window in (("--window", "4"), ()):
        calls.clear()
        _mod_pushdown(capsys, name, *window)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_seed_is_scoped_to_one_command(capsys, n32):
    code, _, _ = run(capsys, "validate", "--input", golden("n32"), "--seed", "7")
    assert code == 0
    M = direct_sum([projective_at(n32, x) for x in n32.vertices])[0]
    decompose(M)
    assert ("decompose", ISO_SEED) in M._cache
    assert ("decompose", 7) not in M._cache


# sha256 of the reports of the commit before the shared Ext-vanishing
# predicate; these are the cheapest runs that reach it (n >= 2).  The
# ZGpEquivalence entries were recorded again when its note stopped naming
# window twists; a field-wise JSON diff showed notes[0] as the only change.
N2_REPORT_SHA256 = {
    ("n32", "SelfinjCriteria"): "85f319f8f26fcb90ccc932d137b48cf190a58be9a641e6afa7456e1e3b16aaed",
    ("n32", "ZGpEquivalence"): "908b16ece68d709d785fe4a2d5d03dab7be2573407d7170e99965220f52304a1",
    ("n32", "PnPushdown"): "0f673ccef7e5e83ee1ceae741beeda952d89fadacf7941721a0781708b656638",
    ("sixcycle", "SelfinjCriteria"): "2fb25b6eae82b26fcb575f6ecfb033ad27456f3790068f2d270fa37ead1fe9a6",
    ("sixcycle", "ZGpEquivalence"): "24678fad8925f893ce3cd788eb5b87a0adafb9f6bd01614db318cedc0e6d5a22",
    ("sixcycle", "PnPushdown"): "34d1710d14eb9a0277112843ef470618444a394507f3ac0676121deafaa8ffe3",
}


@pytest.mark.parametrize("name,claim", sorted(N2_REPORT_SHA256))
def test_n2_ext_reports_unchanged(capsys, name, claim):
    code, out, _ = run(
        capsys, "check", "--input", golden(name), "--claim", claim, "--n", "2", "--window", "6"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == N2_REPORT_SHA256[(name, claim)]


# sha256 and exit code of `suite --n 1 --window 4`.  They were first recorded
# before covers, pools and representables were shared within a command, when
# DILemma was indeterminate here (a twist ran out of the window), and again
# once the carrier became window-free; DILemma's pass is the only difference.
# Recorded again when ModPushdown's upstairs category became window-free: a
# field-wise JSON diff showed that its describe string,
# ModPushdown.witnesses[0].upstairs_nMAG.instance.carrier, is the only
# changed value (it counts twist orbits, not window translates).  Recorded
# again when the ZGpEquivalence note stopped naming window twists: that
# note is the only changed value.
SUITE_W4_REPORT = {
    "n32": (0, "f63c68e4f3eef68e7681f49205e789c80ee9e65107aa3a0f1ca9d1d832ef527c"),
    "loop2": (0, "cb66e189643c885f647c1c933c11e8356a70d4b434be5f5e259952403238de5a"),
}


@pytest.mark.parametrize("name", sorted(SUITE_W4_REPORT))
def test_suite_reports_unchanged(capsys, name):
    code, out, _ = run(capsys, "suite", "--input", golden(name), "--n", "1", "--window", "4")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == SUITE_W4_REPORT[name]


# sha256 and exit code of runs the window-free carrier leaves unchanged,
# recorded at the commit before it.  The `indecs --cover` listing was
# recorded again when the knit began to close twist orbits: it lists one
# centred module per orbit, which test_covering checks against the window knit.
# The suite entry was recorded again when ModPushdown's upstairs category
# became window-free; only its describe string changed, as in SUITE_W4_REPORT,
# and again with SUITE_W4_REPORT for the ZGpEquivalence note.
WINDOW_FREE_REPORT = {
    ("suite", "loop2", "--n", "1"): (
        0, "3ff27963d534c45673a0a5ade2cb7c6131ac8868b93c57382d8fb867c7cb9db6"
    ),
    ("indecs", "n32", "--cover", "--window", "4"): (
        0, "83737a49ef6619dfdbede69e1280cd2fbebf2fd3216bea035b4ef3b100a5c917"
    ),
}


@pytest.mark.parametrize("argv", sorted(WINDOW_FREE_REPORT), ids=" ".join)
def test_reports_unchanged_by_the_window_free_carrier(capsys, argv):
    command, name, *rest = argv
    code, out, _ = run(capsys, command, "--input", golden(name), *rest)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == WINDOW_FREE_REPORT[argv]


def test_corres_class_cap_counts_orbits_not_window_members(capsys):
    # 6 twist orbits; the window members of one half-width-60 window are
    # well over the 512-class cap
    code, out, _ = run(
        capsys, "check", "--input", golden("n32"), "--claim", "Corres", "--n", "1", "--window", "60"
    )
    assert code == 0
    bijection = json.loads(out)["witnesses"][0]["witnesses"][0]
    assert bijection["orbit_classes"] == 6
    assert sum(m["class_size"] for m in bijection["matching"]) > 512


# sha256 and exit code of `check --n 1` on sixcycle, recorded at the commit
# before the orbit partition was kept per pool and TiltingPushdown read
# index pairs
SIXCYCLE_N1_REPORT = {
    "TiltingPushdown": (0, "bf38a16e22a83874b431c91274aaf85904860b232701c5e74b87618895c08df8"),
    "Main2": (0, "53764021036748f4475537288fcd20047a3287eb520e020ee2e8eb8e371d2480"),
    "Corres": (0, "abff1020559f953622556229803a917100c8cbb4e62f84abf1aa079e9ea6c6de"),
    "TiltingFinite": (0, "219f8dc8594341aa7b0d40f9897eeec9d61e2294a3c97670541b53ca421d46e8"),
}


@pytest.mark.parametrize("claim", sorted(SIXCYCLE_N1_REPORT))
def test_sixcycle_reports_unchanged(capsys, claim):
    code, out, _ = run(capsys, "check", "--input", golden("sixcycle"), "--claim", claim, "--n", "1")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == SIXCYCLE_N1_REPORT[claim]


def _exit_code_and_sympy(argv):
    # run the CLI in a fresh interpreter; 10 + exit code if it imported sympy
    script = (
        "import sys\n"
        "from quivercover.cli import main\n"
        f"code = main({argv!r})\n"
        "sys.exit(10 + code if 'sympy' in sys.modules else code)\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True)


def test_validate_does_not_import_sympy():
    # sympy is imported lazily, by polynomial factoring only
    proc = _exit_code_and_sympy(["validate", "--input", golden("n32")])
    assert proc.returncode == 0, proc.stderr


def test_loop2_suite_does_not_import_sympy():
    # every factorisation on this run is a power of one linear factor
    proc = _exit_code_and_sympy(["suite", "--input", golden("loop2"), "--n", "1", "--window", "4"])
    assert proc.returncode == 0, proc.stderr
