"""Tests for the command-line interface."""

import hashlib

import pytest

from repro.cli import main
from repro.errors import WorkloadError
from repro.workloads import kernel_by_name, kernel_factories, resolve_program


class TestKernels:
    def test_lists_kernels(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "checksum" in out and "saxpy" in out

    def test_lists_every_accepted_name(self, capsys):
        """The listing names exactly the kernels ``run`` and served jobs
        accept (``kernel_by_name``), the extended and numeric ones too."""
        assert main(["kernels"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]  # header, rule
        listed = [row.split()[0] for row in rows]
        assert len(listed) == len(set(listed))
        assert set(listed) == set(kernel_factories())
        for name in ("gcd", "bubble_sort", "horner", "vector_max"):
            assert name in listed
        for name in listed:
            assert kernel_by_name(name).name == name
            assert resolve_program(name) is not None
        with pytest.raises(WorkloadError):
            kernel_by_name("not_a_kernel")


class TestRun:
    def test_run_kernel_by_name(self, capsys):
        rc = main(["run", "checksum", "--reconfig-latency", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "IPC" in out

    def test_run_assembly_file(self, tmp_path, capsys):
        src = tmp_path / "prog.s"
        src.write_text("li x1, 3\nloop: addi x1, x1, -1\nbne x1, x0, loop\nhalt\n")
        assert main(["run", str(src)]) == 0
        assert "halted            : True" in capsys.readouterr().out

    def test_unknown_policy(self, capsys):
        rc = main(["run", "checksum", "--policy", "bogus"])
        assert rc == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_compare_mode(self, capsys):
        rc = main(["run", "checksum", "--compare", "--reconfig-latency", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        for policy in ("steering", "ffu-only", "oracle", "demand"):
            assert policy in out

    def test_non_halting_program_exit_code(self, tmp_path, capsys):
        src = tmp_path / "loop.s"
        src.write_text("loop: j loop\nhalt\n")
        assert main(["run", str(src), "--max-cycles", "200"]) == 1

    def test_synthetic_mix_target(self, capsys):
        rc = main(["run", "mix:int:10", "--reconfig-latency", "4"])
        assert rc == 0
        assert "halted            : True" in capsys.readouterr().out

    def test_phased_target(self, capsys):
        rc = main(["run", "phased:1", "--reconfig-latency", "4"])
        assert rc == 0

    def test_unknown_mix_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "mix:quantum"])

    @pytest.mark.parametrize(
        "target", ["mix:int:abc", "phased:x", "mix", "mix:int:10:3:9", "nosuch"]
    )
    def test_bad_target_exits_2_with_one_line(self, target, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", target])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and repr(target) in err

    def test_missing_assembly_file_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", str(tmp_path / "absent.s")])
        assert exc.value.code == 2
        assert "absent.s" in capsys.readouterr().err

    def test_profile_stages_implies_telemetry(self, capsys):
        rc = main(["run", "checksum", "--profile-stages"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "steer_decisions=" in out
        assert "stage wall: retire=" in out

    def test_json_output(self, capsys):
        import json

        rc = main(["run", "checksum", "--json", "--reconfig-latency", "4"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["halted"] is True
        assert record["ipc"] > 0
        assert "IALU" in record["retired_per_type"]


class TestDisasm:
    def test_disassembles_kernel(self, capsys):
        assert main(["disasm", "memcpy"]) == 0
        out = capsys.readouterr().out
        assert "lw" in out and "0x" in out

    @pytest.mark.parametrize("target, lines, digest", [
        ("checksum", 12,
         "f42d39a2d8676b6e7da390c6fa9c76f4212004553d290c4b0ea6f5b2a9268dd0"),
        ("phased:3", 100,
         "b937a59ab797b0fbebff7f21461178a7ac2df5e3fc4e5e503ad626e583a49aad"),
        ("mix:fp:6:2", 46,
         "0b1062a4ba40cbda47bc791a46564ece43c4013f5457c94365227b577e3e4a69"),
    ])
    def test_listing_is_byte_identical(self, capsys, target, lines, digest):
        """The listing formats the decoded words; these SHA-256 digests
        are of the listings that formatted the assembler's instructions."""
        assert main(["disasm", target]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_listing_shows_the_decoded_words(self, capsys, monkeypatch):
        from repro import cli
        from repro.isa.assembler import assemble

        program = assemble("addi x1, x0, 5\nhalt\n")
        # a binary whose first word differs from the source
        program.words = (program.words[0] + (1 << 20),) + program.words[1:]
        monkeypatch.setattr(cli, "_load_program", lambda target: program)
        assert main(["disasm", "anything"]) == 0
        assert "addi x2, x0, 5" in capsys.readouterr().out


class TestArtifacts:
    def test_single_artifact(self, capsys):
        assert main(["artifacts", "table2"]) == 0
        out = capsys.readouterr().out
        assert "SPAN" in out

    def test_unknown_artifact(self, capsys):
        assert main(["artifacts", "bogus"]) == 2

    def test_fig456(self, capsys):
        assert main(["artifacts", "fig456"]) == 0
        assert "FPMul" in capsys.readouterr().out


class TestTrace:
    def test_trace_output(self, capsys):
        rc = main(["trace", "checksum", "--reconfig-latency", "4", "--stride", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cycle" in out and "slots" in out


class TestServe:
    @pytest.mark.parametrize("flag", ["--workers", "--sim-pool"])
    def test_zero_workers_rejected(self, tmp_path, flag, capsys):
        rc = main(["serve", "--port", "0", "--store",
                   str(tmp_path / "runs.sqlite"), flag, "0"])
        assert rc == 2
        assert "at least one" in capsys.readouterr().err
        assert not (tmp_path / "runs.sqlite").exists()  # nothing started
