"""Command line contract: formats, exit codes, determinism, round trips, and a
report written one matrix at a time after everything is computed."""

import contextlib
import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import speccomp.cli
from speccomp import JordanSpec, build_case, case_document
from speccomp.cli import build_parser, main
from speccomp.components import ComponentSet
from speccomp.documents import document_payload, load_document, matrix_from_block
from speccomp.exceptions import ConditioningError
from speccomp.linalg import DEFAULT_TOLERANCES

DIAG02 = {"n": 2, "entries": [[0, 0], [0, 0], [0, 0], [2, 0]]}
JORDAN225 = {
    "n": 3,
    "entries": [[2, 0], [1, 0], [0, 0], [0, 0], [2, 0], [0, 0], [0, 0], [0, 0], [5, 0]],
}


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_tolerance_defaults_are_the_library_defaults(self):
        args = build_parser().parse_args(["projector", "--input", "a.json"])
        assert speccomp.cli._config(args) == DEFAULT_TOLERANCES


class TestProjectorCommand:
    def test_diag_example(self, tmp_path, capsys):
        doc = write_json(tmp_path / "diag02.json", DIAG02)
        code, out, _ = run(capsys, ["projector", "--input", doc])
        assert code == 0
        payload = json.loads(out)
        z = matrix_from_block(payload["projector"])
        assert_allclose(z, np.diag([1.0, 0.0]))
        assert all(v < 1e-12 for v in payload["residuals"].values())

    def test_output_is_deterministic(self, tmp_path, capsys):
        doc = write_json(tmp_path / "diag02.json", DIAG02)
        _, first, _ = run(capsys, ["projector", "--input", doc])
        _, second, _ = run(capsys, ["projector", "--input", doc])
        assert first == second


class TestComponentsCommand:
    def test_jordan_example_matches_oracle(self, tmp_path, capsys):
        doc = write_json(tmp_path / "jordan225.json", JORDAN225)
        code, out, _ = run(capsys, ["components", "--input", doc])
        assert code == 0
        payload = json.loads(out)
        parts = {(c["k"], c["j"]): matrix_from_block(c["matrix"]) for c in payload["components"]}
        assert len(parts) == 3
        # ordering policy puts 5 first, then the defective 2
        assert payload["spectrum"]["eigenvalues"] == [[5.0, 0.0], [2.0, 0.0]]
        assert_allclose(parts[(1, 0)], np.diag([0.0, 0.0, 1.0]), atol=1e-12)
        assert_allclose(parts[(2, 0)], np.diag([1.0, 1.0, 0.0]), atol=1e-12)
        ladder = np.zeros((3, 3))
        ladder[0, 1] = 1.0
        assert_allclose(parts[(2, 1)], ladder, atol=1e-12)

    def test_round_trip_is_bit_identical(self, tmp_path, capsys):
        rng = np.random.default_rng(902)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        doc = write_json(tmp_path / "m.json", document_payload(m))
        code, out, _ = run(capsys, ["components", "--input", doc])
        assert code == 0
        payload = json.loads(out)
        for c in payload["components"]:
            reparsed = matrix_from_block(json.loads(json.dumps(c["matrix"])))
            assert np.array_equal(reparsed, matrix_from_block(c["matrix"]))
        # and the input document itself round-trips exactly
        reloaded, _ = load_document(doc)
        assert np.array_equal(reloaded, m)


class TestStreamedReport:
    @pytest.mark.parametrize(
        "command", ["spectrum", "projector", "components", "drazin", "cesaro", "verify"]
    )
    def test_report_is_the_bytes_of_json_dumps(self, tmp_path, capsys, command):
        from corpus import periodic_chain, random_spec

        if command == "cesaro":
            doc = write_json(tmp_path / "chain.json",
                             document_payload(periodic_chain(np.random.default_rng(4), 12, 3)))
            argv = [command, "--input", doc]
        else:
            spec = random_spec(np.random.default_rng(11), include_zero=True)
            doc = write_json(tmp_path / "case.json", case_document(spec))
            argv = [command, "--input", doc, "--use-given-spectrum"]
        if command == "verify":
            argv += ["--against", doc]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert json.dumps(json.loads(out)) + "\n" == out

    def test_components_report_is_written_one_matrix_at_a_time(self, tmp_path):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        doc = write_json(tmp_path / "g64.json", document_payload(m))
        report = tmp_path / "report.json"

        def traced_main():
            with open(report, "w", encoding="utf-8") as out, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                tracemalloc.start()
                try:
                    code = main(["components", "--input", doc])
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            return code, peak

        traced_main()  # warm-up: lazy imports and caches
        code, peak = traced_main()
        assert code in (0, 4)
        assert len(json.loads(report.read_text(encoding="utf-8"))["components"]) == 64
        # the whole report is 12 MB, and its Python lists about 31 MB
        assert peak <= 16e6, f"{peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_failing_residuals_leave_stdout_empty(self, tmp_path, capsys, monkeypatch, fmt):
        def residuals(self):
            raise ConditioningError("residual overflowed")

        monkeypatch.setattr(ComponentSet, "residuals", residuals)
        doc = write_json(tmp_path / "jordan225.json", JORDAN225)
        code, out, err = run(capsys, ["components", "--input", doc, "--format", fmt])
        assert (code, out, err) == (3, "", "error: residual overflowed\n")


class TestSpectrumCommand:
    def test_given_spectrum_is_trusted(self, tmp_path, capsys):
        # defective eigenvalue after an integer similarity: the document's
        # spectrum block bypasses clustering entirely
        spec = JordanSpec([(2.0, [2]), (5.0, [1])], seed=7)
        _, truth, _ = build_case(spec)
        doc = write_json(tmp_path / "case.json", case_document(spec))
        code, out, _ = run(capsys, ["components", "--input", doc, "--use-given-spectrum"])
        assert code == 0
        payload = json.loads(out)
        parts = {(c["k"], c["j"]): matrix_from_block(c["matrix"]) for c in payload["components"]}
        for (k, j), z in parts.items():
            assert np.linalg.norm(z - truth.parts[(k, j)]) <= 1e-8 * max(
                1.0, np.linalg.norm(truth.parts[(k, j)])
            )

    def test_missing_spectrum_block_is_a_precondition_error(self, tmp_path, capsys):
        doc = write_json(tmp_path / "diag02.json", DIAG02)
        code, _, err = run(capsys, ["spectrum", "--input", doc, "--use-given-spectrum"])
        assert code == 2
        assert "spectrum" in err


class TestFormats:
    def test_csv_input(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("0.0,0.0,0.0,0.0\n0.0,0.0,2.0,0.0\n", encoding="utf-8")
        code, out, _ = run(capsys, ["projector", "--input", str(path)])
        assert code == 0
        z = matrix_from_block(json.loads(out)["projector"])
        assert_allclose(z, np.diag([1.0, 0.0]))

    def test_csv_output(self, tmp_path, capsys):
        doc = write_json(tmp_path / "diag02.json", DIAG02)
        code, out, err = run(capsys, ["projector", "--input", doc, "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "projector"
        assert lines[1] == "1.0,0.0,0.0,0.0"
        assert lines[2] == "0.0,0.0,0.0,0.0"
        assert "residual" in err

    def test_drazin_and_cesaro_commands(self, tmp_path, capsys):
        doc = write_json(tmp_path / "diag02.json", DIAG02)
        code, out, _ = run(capsys, ["drazin", "--input", doc])
        assert code == 0
        assert_allclose(
            matrix_from_block(json.loads(out)["drazin_inverse"]), np.diag([0.0, 0.5]), atol=1e-14
        )
        swap = write_json(tmp_path / "swap.json", {"n": 2, "entries": [[0, 0], [1, 0], [1, 0], [0, 0]]})
        code, out, _ = run(capsys, ["cesaro", "--input", swap])
        assert code == 0
        assert_allclose(
            matrix_from_block(json.loads(out)["cesaro_limit"]), np.full((2, 2), 0.5), atol=1e-12
        )


    def test_real_chain_limit_has_exact_zero_imaginary_parts(self, tmp_path, capsys):
        from corpus import periodic_chain

        doc = write_json(tmp_path / "chain.json",
                         document_payload(periodic_chain(np.random.default_rng(4), 12, 3)))
        code, out, _ = run(capsys, ["cesaro", "--input", doc])
        assert code == 0
        entries = json.loads(out)["cesaro_limit"]["entries"]
        assert len(entries) == 144
        assert all(im == 0.0 and str(im) == "0.0" for _, im in entries)


class TestExitCodes:
    def test_malformed_json_is_1_with_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "entries": [[0,0]', encoding="utf-8")
        code, _, err = run(capsys, ["spectrum", "--input", str(path)])
        assert code == 1
        assert "line" in err and "column" in err

    def test_missing_file_is_1(self, capsys):
        code, _, err = run(capsys, ["spectrum", "--input", "/nonexistent/x.json"])
        assert code == 1

    def test_wrong_entry_count_is_1(self, tmp_path, capsys):
        doc = write_json(tmp_path / "short.json", {"n": 2, "entries": [[1, 0]]})
        code, _, err = run(capsys, ["spectrum", "--input", doc])
        assert code == 1
        assert "entries" in err

    def test_precondition_violation_is_2(self, tmp_path, capsys):
        # cesaro on a non-stochastic matrix
        doc = write_json(tmp_path / "ns.json", {"n": 2, "entries": [[3, 0], [0, 0], [0, 0], [1, 0]]})
        code, _, err = run(capsys, ["cesaro", "--input", doc])
        assert code == 2
        assert "stochastic" in err

    def test_conditioning_guard_is_3(self, tmp_path, capsys):
        # the double eigenvalue 1e-7 gets exponent 2 under worst-case, so its
        # factor (A - 1e-7 I)^2 / (0 - 1e-7)^2 in the projector at 0 has norm 1e28
        doc = write_json(
            tmp_path / "extreme.json",
            document_payload(np.diag([0.0, 1e-7, 1e-7, 1e7])),
        )
        argv = ["projector", "--input", doc, "--tol-eig", "1e-16"]
        code, _, err = run(capsys, argv + ["--exponents", "worst-case"])
        assert code == 3
        assert "1.000e+28" in err and "minimal" in err
        code, _, _ = run(capsys, argv)
        assert code == 0

    @pytest.mark.parametrize("command", ["projector", "drazin"])
    def test_lost_zero_eigenvalue_is_3(self, tmp_path, capsys, command):
        from corpus import lost_zero_matrix

        doc = write_json(tmp_path / "lost.json", document_payload(lost_zero_matrix()))
        code, out, err = run(capsys, [command, "--input", doc])
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "numerically singular" in err

    def test_components_refuses_a_lost_zero_as_projector_does(self, tmp_path, capsys):
        from corpus import lost_zero_matrix

        doc = write_json(tmp_path / "lost.json", document_payload(lost_zero_matrix()))
        code, out, err = run(capsys, ["components", "--input", doc])
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and "no zero eigenvalue" in err
        assert run(capsys, ["projector", "--input", doc]) == (3, "", err)

    def test_clustered_value_that_is_no_eigenvalue_is_3(self, tmp_path, capsys):
        # at radius 1e-3 the values 1 and 1.001 join into the centroid 1.0005,
        # and A - 1.0005 I has full rank, so the cluster is no eigenvalue
        doc = write_json(tmp_path / "close.json", document_payload(np.diag([1.0, 1.001, 5.0])))
        code, out, err = run(capsys, ["spectrum", "--input", doc, "--tol-eig", "1e-3"])
        assert (code, out) == (3, "")
        assert "clustered value (1.0005+0j) is not an eigenvalue" in err

    def test_simple_extreme_ratio_is_exact_under_worst_case(self, tmp_path, capsys):
        # every exponent is a multiplicity, here 1, and no eigenvalue is 0, so
        # the projector is (I - A/1e7)(I - A/1e-7): diagonal, and exactly 0
        doc = write_json(
            tmp_path / "extreme.json",
            {"n": 2, "entries": [[1e-7, 0], [0, 0], [0, 0], [1e7, 0]]},
        )
        code, out, _ = run(
            capsys,
            ["projector", "--input", doc, "--tol-eig", "1e-16", "--exponents", "worst-case"],
        )
        assert code == 0
        assert not matrix_from_block(json.loads(out)["projector"]).any()

    def test_verify_mismatch_is_4(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", DIAG02)
        b = write_json(
            tmp_path / "b.json", {"n": 2, "entries": [[0, 0], [0, 0], [0, 0], [2.5, 0]]}
        )
        code, out, err = run(capsys, ["verify", "--input", a, "--against", b])
        assert code == 4
        payload = json.loads(out)
        assert payload["passed"] is False
        assert abs(payload["max_abs_deviation"] - 0.5) < 1e-15

    def test_verify_deviation_past_the_float_range_is_inf(self, tmp_path, capsys):
        plus = write_json(tmp_path / "plus.json", document_payload(np.array([[1e308]])))
        minus = write_json(tmp_path / "minus.json", document_payload(np.array([[-1e308]])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["verify", "--input", plus, "--against", minus])
        assert (code, err) == (4, "deviation inf exceeds verify_tol 1.000e-08\n")
        assert json.loads(out)["max_abs_deviation"] == np.inf

    def test_overflowing_residual_floor_is_4_with_one_line(self, tmp_path, capsys):
        # A^D = 0 of the nilpotent A = 2**700 N: the power identity's floored
        # value ||A^3|| is past the float range and reads inf
        a = 2.0 ** 700 * build_case(JordanSpec(((0, (3,)),), seed=0))[0]
        records = [{"value": 0j, "multiplicity": 3, "index": 3}]
        doc = write_json(tmp_path / "nilpotent.json", document_payload(a, records))
        code, out, err = run(capsys, ["drazin", "--input", doc, "--use-given-spectrum"])
        assert (code, err) == (4, "residual inf exceeds verify_tol 1.000e-08\n")
        assert '"power_identity": Infinity' in out
        assert json.loads(out)["residuals"]["power_identity"] == np.inf

    def test_verify_match_is_0(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", DIAG02)
        code, out, _ = run(capsys, ["verify", "--input", a, "--against", a])
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_verify_against_another_size_is_2(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", DIAG02)
        b = write_json(tmp_path / "b.json", {"n": 1, "entries": [[2, 0]]})
        code, out, err = run(capsys, ["verify", "--input", a, "--against", b])
        assert (code, out) == (2, "")
        assert err == "error: cannot compare a 2x2 matrix against a 1x1 reference\n"

    def test_residual_enforcement_is_4(self, tmp_path, capsys):
        # a defective case has residuals around machine precision: shrink
        # verify_tol below them and the run must flag itself
        spec = JordanSpec([(1.0, [2, 1]), (-2.0, [3])], seed=42)
        a, _, sp = build_case(spec)
        records = [
            {"value": v, "multiplicity": m, "index": nu}
            for v, m, nu in zip(sp.eigenvalues, sp.multiplicities, sp.indices)
        ]
        doc = write_json(tmp_path / "case.json", document_payload(a, records))
        code, out, err = run(
            capsys,
            ["components", "--input", doc, "--use-given-spectrum", "--verify-tol", "1e-17"],
        )
        assert code == 4
        assert "residual" in err
        assert json.loads(out)["residuals"]  # payload still emitted

    def test_overflowing_quotient_is_3(self, tmp_path, capsys):
        # the factor (A - 1e-10 I) / (0 - 1e-10) of the projector at 0 has
        # norm 1e310 once the radius keeps 1e-10 off zero: past the largest double
        doc = write_json(tmp_path / "ratio.json", document_payload(np.diag([0.0, 1e300, 1e-10])))
        for command in ("projector", "drazin"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, _, err = run(capsys, [command, "--input", doc, "--tol-eig", "1e-320"])
            assert code == 3, err
            assert "product factor has Frobenius norm inf" in err
            assert not any("overflow" in str(w.message) for w in caught)

    def test_nan_residual_is_4(self, tmp_path, capsys, monkeypatch):
        def residuals(a, sp, z):
            return {"idempotency": 0.0, "commutation": float("nan"), "annihilation": 0.0}

        monkeypatch.setattr(speccomp.cli, "eigenprojection_residuals", residuals)
        doc = write_json(tmp_path / "diag02.json", DIAG02)
        code, _, err = run(capsys, ["projector", "--input", doc])
        assert code == 4
        assert "nan exceeds" in err

    def test_huge_jordan_block_components_exit_0(self, tmp_path, capsys):
        # A @ Z_1_1 overflows here; the residuals must still be read scale-free
        doc = write_json(
            tmp_path / "huge.json", {"n": 2, "entries": [[1e200, 0], [1e200, 0], [0, 0], [1e200, 0]]}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["components", "--input", doc])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["spectrum"]["indices"] == [2]
        assert all(r <= report["tolerances"]["verify_tol"] for r in report["residuals"].values())

    def test_overflowing_powers_exit_3_with_one_error_line(self, tmp_path, capsys):
        # 1e200 * (I + N), N the 3x3 nilpotent shift: Z_1_2 holds 5e399
        jordan = write_json(
            tmp_path / "jordan.json", document_payload(1e200 * (np.eye(3) + np.eye(3, k=1)))
        )
        # (A / 1e-200)^2 overflows inside the projector's product factor
        tiny = np.zeros((4, 4))
        tiny[0, 1], tiny[2, 2], tiny[3, 3] = 1.0, 1e-200, 1.0
        tiny = write_json(tmp_path / "tiny.json", document_payload(tiny))
        for argv in (["components", "--input", jordan],
                     ["projector", "--input", tiny, "--tol-eig", "1e-320"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, _, err = run(capsys, argv)
            assert code == 3, (argv, err)
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)

    def test_overflowing_annihilation_power_exits_0_with_empty_stderr(self, tmp_path, capsys):
        # A^2 overflows in the annihilation residual, yet the projector
        # diag(1, 1, 0) is exact and every residual is 0
        shift = write_json(
            tmp_path / "shift.json", document_payload(1e200 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 1]]))
        )
        for command in ("projector", "components"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, [command, "--input", shift])
            assert (code, err) == (0, ""), command
            assert set(json.loads(out)["residuals"].values()) == {0.0}, command

    def test_direction_kept_past_an_overflowing_one_exits_0(self, tmp_path, capsys):
        # the factor A^2 of Z_1_0 keeps only the 1e30 direction, which
        # (A / ||A||)^2 holds at 1e-340, below the smallest double
        a = np.array([[0, 1e200, 0], [0, 0, 0], [0, 0, 1e30]])
        doc = write_json(tmp_path / "kept.json", document_payload(a))
        code, out, err = run(capsys, ["components", "--input", doc])
        assert (code, err) == (0, "")
        z = next(c for c in json.loads(out)["components"] if (c["k"], c["j"]) == (1, 0))
        assert_allclose(matrix_from_block(z["matrix"]), np.diag([0.0, 0.0, 1.0]), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("a, flags, a_d", [
        (1e-160 * np.diag([1.0, 2.0]), ["--tol-eig", "1e-200"], np.diag([1e160, 5e159])),
        (np.diag([1e-160, 1.0]), ["--tol-eig", "1e-170", "--tol-rank", "1e-200"], np.diag([1e160, 1.0])),
    ])
    def test_drazin_inverse_past_1e154_reads_its_residuals(self, tmp_path, capsys, a, flags, a_d):
        # frob(A^D) ** 2 in Python floats raised OverflowError here
        doc = write_json(tmp_path / "tiny.json", document_payload(a))
        code, out, err = run(capsys, ["drazin", "--input", doc, *flags])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert np.array_equal(matrix_from_block(report["drazin_inverse"]), a_d)
        assert set(report["residuals"].values()) == {0.0}

    def test_overflowing_product_of_guarded_factors_is_3(self, tmp_path, capsys):
        # factors I - A and I - A/2 have norms near 1e11, inside the guard
        # 1e20; their product has norm 5e21
        a = np.array([[0, 1e11, 0], [0, 1, 1e11], [0, 0, 2]])
        assert max(np.linalg.norm(np.eye(3) - a / lam) for lam in (1, 2)) < 1e12
        records = [{"value": complex(v), "multiplicity": 1, "index": 1} for v in (0, 1, 2)]
        doc = write_json(tmp_path / "product.json", document_payload(a, records))
        code, _, err = run(capsys, ["projector", "--input", doc, "--use-given-spectrum"])
        assert code == 3, err
        assert err.startswith("error: product of factors") and err.count("\n") == 1, err

    def test_cesaro_refuses_spectrum_flags_with_2(self, tmp_path, capsys):
        # cesaro computes its own spectrum; a given or worst-case one would
        # be reported without being used
        chain = np.array([[0.5, 0.5, 0], [0, 0.5, 0.5], [0, 0, 1]])
        records = [{"value": complex(v), "multiplicity": m, "index": 1} for v, m in ((1, 1), (0.5, 2))]
        doc = write_json(tmp_path / "chain.json", document_payload(chain, records))
        for flags in (["--use-given-spectrum"], ["--exponents", "worst-case"]):
            code, out, err = run(capsys, ["cesaro", "--input", doc, *flags])
            assert (code, out) == (2, ""), flags
            assert err.startswith("error: cesaro") and err.count("\n") == 1, (flags, err)
        code, _, err = run(capsys, ["cesaro", "--input", doc, "--exponents", "minimal"])
        assert (code, err) == (0, "")

    def test_huge_finite_entries_exit_0_with_empty_stderr(self, tmp_path, capsys):
        huge = write_json(
            tmp_path / "huge.json", {"n": 2, "entries": [[1e200, 0], [1e200, 0], [0, 0], [1e200, 0]]}
        )
        ratio = write_json(
            tmp_path / "ratio.json", {"n": 2, "entries": [[1e300, 0], [0, 0], [0, 0], [1e-10, 0]]}
        )
        # the distance between these eigenvalues overflows: they are not close
        top = write_json(tmp_path / "top.json", document_payload(np.diag([1.7e308, -1.7e308])))
        for command, doc in (("spectrum", huge), ("projector", huge), ("drazin", huge),
                             ("projector", ratio), ("spectrum", top), ("projector", top), ("drazin", top)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, _, err = run(capsys, [command, "--input", doc])
            assert (code, err) == (0, ""), command

    @pytest.mark.parametrize("big", [3e160, 1e300])
    def test_order_2_beside_a_huge_eigenvalue_exits_0(self, tmp_path, capsys, big):
        # (A - 0 I)^2 overflows at big; Z_22 = N^2 / 2 does not
        a = np.zeros((4, 4))
        a[0, 0], a[1, 2], a[2, 3] = big, 1.0, 1.0
        records = [{"value": complex(big), "multiplicity": 1, "index": 1},
                   {"value": 0j, "multiplicity": 3, "index": 3}]
        doc = write_json(tmp_path / "huge.json", document_payload(a, records))
        for policy in ("minimal", "worst-case"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, ["components", "--input", doc, "--use-given-spectrum",
                                              "--exponents", policy])
            assert (code, err) == (0, ""), policy
            assert set(json.loads(out)["residuals"].values()) == {0.0}, policy


class TestDocumentValidation:
    def test_spectrum_multiplicity_sum_checked(self, tmp_path, capsys):
        bad = dict(DIAG02)
        bad["spectrum"] = [{"value": [2.0, 0.0], "multiplicity": 1, "index": 1}]
        doc = write_json(tmp_path / "bad.json", bad)
        code, _, err = run(capsys, ["spectrum", "--input", doc, "--use-given-spectrum"])
        assert code == 1
        assert "sum" in err

    def test_csv_bad_cell_position_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,0.0,oops,0.0\n0.0,0.0,2.0,0.0\n", encoding="utf-8")
        code, _, err = run(capsys, ["spectrum", "--input", str(path)])
        assert code == 1
        assert "line 1" in err and "column 3" in err


def _one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


class TestMalformedInput:
    """Malformed bytes exit 1 with one bounded error line, never a traceback."""

    def test_non_utf8_bytes_are_1(self, tmp_path, capsys):
        path = tmp_path / "latin.json"
        path.write_bytes(b'\xff\xfe{"n":1}')
        code, out, err = run(capsys, ["spectrum", "--input", str(path)])
        assert (code, out) == (1, "")
        assert _one_error_line(err) and "UTF-8" in err and "byte 0" in err

    def test_deep_nesting_is_1(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        code, out, err = run(capsys, ["spectrum", "--input", str(path)])
        assert (code, out) == (1, "")
        assert _one_error_line(err) and "nested too deeply" in err

    def test_integer_past_the_digit_limit_is_1(self, tmp_path, capsys):
        path = tmp_path / "digits.json"
        path.write_text('{"n": ' + "7" * 5000 + "}", encoding="utf-8")
        code, out, err = run(capsys, ["spectrum", "--input", str(path)])
        assert (code, out) == (1, "")
        assert _one_error_line(err) and len(err) < 300

    def test_integer_entry_past_the_float_range_is_1(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"n": 1, "entries": [[1' + "0" * 400 + ", 0]]}", encoding="utf-8")
        code, out, err = run(capsys, ["spectrum", "--input", str(path)])
        assert (code, out, err) == (1, "", "error: entries[0]: entries must be finite\n")

    @pytest.mark.parametrize("name", ["index", "multiplicity"])
    @pytest.mark.parametrize("command", ["spectrum", "projector"])
    def test_a_count_above_n_gives_a_short_error(self, tmp_path, capsys, name, command):
        record = {"value": [1, 0], "multiplicity": 1, "index": 1}
        record[name] = int("9" * 4000)
        doc = write_json(tmp_path / "big.json", {"n": 1, "entries": [[1, 0]], "spectrum": [record]})
        code, out, err = run(capsys, [command, "--input", doc, "--use-given-spectrum"])
        assert (code, out) == (1, "")
        assert _one_error_line(err) and len(err.encode()) < 300, err[:400]
        assert f"spectrum[0].{name} must be an integer in 1..1, got 9999" in err

    @pytest.mark.parametrize("where", ["n", "pair", "multiplicity", "csv"])
    def test_a_megabyte_value_gives_a_short_error(self, tmp_path, capsys, where):
        big = "x" * 1_000_000
        record = {"value": [1, 0], "multiplicity": 1, "index": 1}
        doc = {"n": 1, "entries": [[1, 0]], "spectrum": [record]}
        if where == "n":
            doc["n"] = big
        elif where == "pair":
            doc["entries"] = [[big, 0]]
        elif where == "multiplicity":
            record["multiplicity"] = big
        if where == "csv":
            path = tmp_path / "big.csv"
            path.write_text(f"1,{big}\n", encoding="utf-8")
        else:
            path = tmp_path / "big.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, ["spectrum", "--input", str(path)])
        assert (code, out) == (1, "")
        assert _one_error_line(err) and len(err.encode()) < 300, err[:400]
        assert "'xxxxx" in err and "..." in err

    def test_short_values_are_echoed_as_before(self, tmp_path, capsys):
        doc = write_json(tmp_path / "n.json", {"n": "two", "entries": []})
        code, _, err = run(capsys, ["spectrum", "--input", doc])
        assert (code, err) == (1, "error: 'n' must be a positive integer, got 'two'\n")
        doc = write_json(tmp_path / "pair.json", {"n": 1, "entries": [[1, 2, 3]]})
        code, _, err = run(capsys, ["spectrum", "--input", doc])
        assert err == "error: entries[0]: expected a [re, im] pair of numbers, got [1, 2, 3]\n"
