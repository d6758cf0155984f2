"""CLI contract: commands, exit codes, report schema, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from quivercover import CapExceeded, tautilt, verify_orbit_bijection
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


@pytest.mark.parametrize(
    "argv",
    [
        ["validate"],
        ["orbit", "--action", os.path.join(GOLDEN, "sixcycle_action.json")],
        ["pushdown", "--module", "mod.json"],
        ["indecs", "--cover"],
        ["check", "--claim", "Corres"],
        ["suite"],
        ["enumerate-tilting", "--cover"],
    ],
    ids=lambda argv: argv[0],
)
def test_no_command_takes_a_window(capsys, argv):
    command, *rest = argv
    assert main([command, "--input", golden("n32"), *rest, "--window", "4"]) == 2
    assert "unrecognized arguments: --window 4" in capsys.readouterr().err


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
    # golden/n32_z2.json is this quotient, N(3,2) graded by Z/2
    with open(golden("n32_z2"), encoding="utf-8") as fh:
        assert doc == json.load(fh)


def _pushdown(capsys, tmp_path, module):
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(module))
    return run(capsys, "pushdown", "--input", golden("n32"), "--module", str(path))


def test_pushdown_command(tmp_path, capsys):
    # the covering simple at shift 2 pushes down to the base simple
    code, out, _ = _pushdown(capsys, tmp_path, {"dims": {"2@2": 1}, "arrowmaps": {}})
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == {"2": 1}


def test_pushdown_of_a_far_twist_is_that_of_the_centred_twist(tmp_path, capsys):
    # no window bounds a module literal: any shift of the group is an object
    far = {"dims": {"1@100": 1, "2@101": 1}, "arrowmaps": {"a1@100": [[1]]}}
    centred = {"dims": {"1@0": 1, "2@1": 1}, "arrowmaps": {"a1@0": [[1]]}}
    code_far, out_far, _ = _pushdown(capsys, tmp_path, far)
    code_centred, out_centred, _ = _pushdown(capsys, tmp_path, centred)
    assert code_far == code_centred == 0
    assert out_far == out_centred
    assert json.loads(out_far) == {"dims": {"1": 1, "2": 1}, "arrowmaps": {"a1": [[1]]}}


@pytest.mark.parametrize(
    "module",
    [
        {"dims": {"1@1,2": 1}},
        {"dims": {"1@x": 1}},
        {"dims": {"9@0": 1}},
        {"dims": {"1@0": 1, "2@1": 1}, "arrowmaps": {"zz@0": [[1]]}},
    ],
    ids=["wrong-rank", "bad-shift", "unknown-vertex", "unknown-arrow"],
)
def test_pushdown_rejects_bad_module_literals(tmp_path, capsys, module):
    code, _, err = _pushdown(capsys, tmp_path, module)
    assert code == 2
    assert err.startswith("SchemaError: ")


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
    # at n = 2 TiltingPushdown raises on its ambient; it is reported, and
    # every other claim still runs
    code, out, _ = run(capsys, "suite", "--input", golden("loop2"), "--n", "2")
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
    # translates and twists of any module stay on the covering carrier, so
    # Main2 and ModPushdown are decided
    code, out, _ = run(capsys, "suite", "--input", golden(name), "--n", "2")
    assert code == 3
    reports = {r["claim"]: r for r in json.loads(out)}
    assert reports["Main2"]["pass"] is True
    assert reports["ModPushdown"]["pass"] is True
    assert not any(
        note.startswith("WindowTooSmall") for r in reports.values() for note in r.get("notes", [])
    )


def test_unmet_ambient_hypothesis_is_not_applicable(capsys):
    code, out, _ = run(
        capsys, "check", "--input", golden("ka2"), "--claim", "TiltingPushdown", "--n", "2"
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
        capsys, "check", "--input", golden("loop2"), "--claim", "TiltingPushdown", "--n", "1"
    )
    assert code == 0
    assert len(calls) == 2  # the upstairs and the downstairs ambient


def _mod_pushdown(capsys, name):
    code, out, _ = run(
        capsys, "check", "--input", golden(name), "--claim", "ModPushdown", "--n", "1"
    )
    assert code == 0
    return out


# sha256 of the ModPushdown report at n = 1.  The commit before `--window`
# went gave this same report at --window 4, at --window 6 and at the
# default window, once instance.window_halfwidth is read as instance.group.
MOD_PUSHDOWN_REPORT_SHA256 = {
    "n32": "b25f1ebadc6c6b5ab4d69429e914552d19a8e5470e77e0bde787f5fba399a9d6",
    "loop2": "ff2f190ea95b4c2f3e5ab2ef9fb902959a4813b5518ee83c3d2cfb0c89910d35",
}

# hom_basis calls of that claim; the commit before `--window` went made as
# many at --window 4 as at the default window.
MOD_PUSHDOWN_HOM_BASIS_CALLS = {"n32": 213, "loop2": 55}


@pytest.mark.parametrize("name", ["n32", "loop2"])
def test_mod_pushdown_report_is_window_independent(capsys, name):
    out = _mod_pushdown(capsys, name)
    assert json.loads(out)["pass"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == MOD_PUSHDOWN_REPORT_SHA256[name]


@pytest.mark.parametrize("name", ["n32", "loop2"])
def test_mod_pushdown_hom_basis_calls_are_window_independent(capsys, monkeypatch, name):
    # the upstairs category computes hom bases on demand, so no count grows
    # past the one every window gave; every module-level binding of hom_basis
    # is wrapped
    import quivercover

    original = quivercover.modules.hom_basis
    calls = []

    def counting(*a, **kw):
        calls.append(None)
        return original(*a, **kw)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("quivercover") and getattr(module, "hom_basis", None) is original:
            monkeypatch.setattr(module, "hom_basis", counting)
    _mod_pushdown(capsys, name)
    assert 0 < len(calls) <= MOD_PUSHDOWN_HOM_BASIS_CALLS[name]


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
# All were recorded again when `--window` went (they ran at --window 6): a
# field-wise JSON diff showed instance.window_halfwidth replaced by
# instance.group and the cover's describe string naming its group instead
# of a window of shifts as the only changes.
N2_REPORT_SHA256 = {
    ("n32", "SelfinjCriteria"): "651d09cec5108a6225f72d44164c790288382fd9bde747ce8683bf17e59c6bd6",
    ("n32", "ZGpEquivalence"): "59be85634628d425707815f6c1feb399236d23d440d9500e7bb8b58932f2a322",
    ("n32", "PnPushdown"): "541266843b17f34a67e489226a148bbf6ed87852390570275ece87fec3e0a446",
    ("sixcycle", "SelfinjCriteria"): "f72543cdc4190fcb4623be1a9ccb4f566c9d564af32a87052d09c76d3041ddb3",
    ("sixcycle", "ZGpEquivalence"): "9f25745d6c7a3bf4dbb859139945f53bc768e6963a3381c97befd5a2dac63696",
    ("sixcycle", "PnPushdown"): "e0fd254d46038df4a2f690af0650606368207628bd415905d5574c5e1b69ac4e",
}


@pytest.mark.parametrize("name,claim", sorted(N2_REPORT_SHA256))
def test_n2_ext_reports_unchanged(capsys, name, claim):
    code, out, _ = run(
        capsys, "check", "--input", golden(name), "--claim", claim, "--n", "2"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == N2_REPORT_SHA256[(name, claim)]


# sha256 and exit code of `suite --n 1`.  The n32 and loop2 entries were
# first recorded at --window 4 before covers, pools and representables were
# shared within a command, when DILemma was indeterminate here (a twist ran
# out of the window), and again once the carrier became window-free;
# DILemma's pass is the only difference.  Recorded again when ModPushdown's
# upstairs category became window-free: a field-wise JSON diff showed that
# its describe string, ModPushdown.witnesses[0].upstairs_nMAG.instance.carrier,
# is the only changed value (it counts twist orbits, not window translates).
# Recorded again when the ZGpEquivalence note stopped naming window twists:
# that note is the only changed value.  Recorded again when `--window` went:
# a field-wise JSON diff against --window 4 and the default window showed
# instance.window_halfwidth replaced by instance.group, the cover's describe
# strings, and the removed Corres matching[].class_size and Main2
# preimage_members as the only changes.  The other entries were first
# recorded then.
SUITE_N1_REPORT = {
    "ausl2": (0, "9429e14dcb2f463b66a3ffc6885412e444ebb21041b8cff5318c82f43c9c1189"),
    "ka2": (0, "fa954c6b3f6df53a58f6fd20ecfda66c8fbccb1aaea00fd85724adb05a33f400"),
    "ka3": (0, "07eaca5944a145537c8c760d42ebb4d5170b9ce2d8745e36d607071faa736774"),
    "loop2": (0, "3d078deb11eb423399ca8d053e70c373584cd391833bbfe50aff16fb1a260cdb"),
    "n32": (0, "df36b22fd6cbe4e79331fb1a17c40fa2fc7420c10cdd2583e329c6c9956d8f49"),
    "n32_z2": (0, "278679a015c9ac4fcbf2d405c2415962569c69eb752f15f053f6a0f0706b2d6b"),
    "sixcycle": (0, "7630dc16ce7d62a232919e23f579a5c32818eca0c1aed1daf91311e1d85dee44"),
}

# The grading group each golden algebra's reports name, and its number of
# indecomposables; n32_z2 is N(3,2) graded by Z/2, with m * l = 6 classes.
GOLDEN_GROUP_AND_CLASSES = {
    "ausl2": ({"kind": "free-abelian", "rank": 0}, 5),
    "ka2": ({"kind": "free-abelian", "rank": 0}, 3),
    "ka3": ({"kind": "free-abelian", "rank": 0}, 6),
    "loop2": ({"kind": "free-abelian", "rank": 1}, 2),
    "n32": ({"kind": "free-abelian", "rank": 1}, 6),
    "n32_z2": ({"kind": "cyclic", "m": 2}, 6),
    "sixcycle": ({"kind": "free-abelian", "rank": 0}, 12),
}


def _keys(doc):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield key
            yield from _keys(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _keys(value)


@pytest.mark.parametrize("name", sorted(SUITE_N1_REPORT))
def test_suite_reports_unchanged(capsys, name):
    code, out, _ = run(capsys, "suite", "--input", golden(name), "--n", "1")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == SUITE_N1_REPORT[name]
    reports = json.loads(out)
    assert [r["pass"] for r in reports] == [True] * len(CLAIM_IDS)
    assert not any("window" in key for key in _keys(reports))
    group, classes = GOLDEN_GROUP_AND_CLASSES[name]
    assert all(r["instance"]["group"] == group for r in reports)
    bijection = reports[CLAIM_IDS.index("Corres")]["witnesses"][0]["witnesses"][0]
    assert bijection["orbit_classes"] == bijection["base_indecomposables"] == classes


# sha256 and exit code of runs the window-free carrier leaves unchanged,
# recorded at the commit before it.  The `indecs --cover` listing was
# recorded again when the knit began to close twist orbits: it lists one
# centred module per orbit, which test_covering checks against the window knit.
# The suite entry was recorded again when ModPushdown's upstairs category
# became window-free; only its describe string changed, as in SUITE_N1_REPORT,
# and again with SUITE_N1_REPORT for the ZGpEquivalence note and when
# `--window` went.  The `indecs --cover` listing ran at --window 4 until
# then and is byte-identical without it.
WINDOW_FREE_REPORT = {
    ("suite", "loop2", "--n", "1"): (
        0, "3d078deb11eb423399ca8d053e70c373584cd391833bbfe50aff16fb1a260cdb"
    ),
    ("indecs", "n32", "--cover"): (
        0, "83737a49ef6619dfdbede69e1280cd2fbebf2fd3216bea035b4ef3b100a5c917"
    ),
}


@pytest.mark.parametrize("argv", sorted(WINDOW_FREE_REPORT), ids=" ".join)
def test_reports_unchanged_by_the_window_free_carrier(capsys, argv):
    command, name, *rest = argv
    code, out, _ = run(capsys, command, "--input", golden(name), *rest)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == WINDOW_FREE_REPORT[argv]


def test_corres_class_cap_counts_orbits_not_window_members(n32_cover):
    # the cap bounds the 6 twist orbits; the twists of each orbit are
    # infinitely many and never counted
    assert verify_orbit_bijection(n32_cover, class_cap=6).outcome is True
    with pytest.raises(CapExceeded):
        verify_orbit_bijection(n32_cover, class_cap=5)


# sha256 and exit code of `check --n 1` on sixcycle, recorded at the commit
# before the orbit partition was kept per pool and TiltingPushdown read
# index pairs.  Recorded again when `--window` went, with the field-wise
# changes listed at SUITE_N1_REPORT.
SIXCYCLE_N1_REPORT = {
    "TiltingPushdown": (0, "924bae2710d1e7e1698fd172816df89000a20b463ccb00ebf821a89a51812c5f"),
    "Main2": (0, "6eacff5acbf939375fc7353c1e87f3e2ee6a6730d1a4040f247e938e928ddb50"),
    "Corres": (0, "73dbdeed00970fdb9509a4c13c46470591ed3b99d019c753b1a981b1f993247c"),
    "TiltingFinite": (0, "540cbc4c652f104ae1f4fe471645803999236843f582f491ca1a0ae6f1879b15"),
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
    proc = _exit_code_and_sympy(["suite", "--input", golden("loop2"), "--n", "1"])
    assert proc.returncode == 0, proc.stderr
