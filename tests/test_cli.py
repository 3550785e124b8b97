"""Runtime CLI tests."""

import io

import pytest

from repro.cli import RuntimeCLI
from repro.programs import PROGRAMS
from repro.rmt.packet import NC_READ, NC_WRITE, make_cache
from repro.rmt.pipeline import Verdict


@pytest.fixture
def cli(tmp_path):
    out = io.StringIO()
    interface = RuntimeCLI(out=out)
    source = tmp_path / "cache.rp"
    source.write_text(PROGRAMS["cache"].source)
    return interface, out, source


def output(out: io.StringIO) -> str:
    return out.getvalue()


class TestDeployRevoke:
    def test_deploy_and_list(self, cli):
        interface, out, source = cli
        interface.execute(f"deploy {source}")
        interface.execute("list")
        text = output(out)
        assert "deployed 'cache' as #1" in text
        assert "mem1@rpb" in text

    def test_revoke(self, cli):
        interface, out, source = cli
        interface.execute(f"deploy {source}")
        interface.execute("revoke 1")
        interface.execute("list")
        text = output(out)
        assert "revoked #1" in text
        assert "no programs running" in text

    def test_deploy_missing_file(self, cli):
        interface, out, _ = cli
        interface.execute("deploy /nonexistent.rp")
        assert "error:" in output(out)

    def test_deploy_with_objective_and_elastic(self, cli):
        interface, out, source = cli
        interface.execute(f"deploy {source} --objective f2 --elastic 8")
        assert "deployed 'cache'" in output(out)

    def test_functional_after_cli_deploy(self, cli):
        interface, out, source = cli
        interface.execute(f"deploy {source}")
        dataplane = interface.dataplane
        dataplane.process(make_cache(1, 2, op=NC_WRITE, key=0x8888, value=3))
        hit = dataplane.process(make_cache(1, 2, op=NC_READ, key=0x8888))
        assert hit.verdict is Verdict.REFLECT


class TestShowAndUtil:
    def test_show_pretty_prints(self, cli):
        interface, out, source = cli
        interface.execute(f"deploy {source}")
        interface.execute("show 1")
        text = output(out)
        assert "program cache(" in text
        assert "// logic RPBs:" in text

    def test_util(self, cli):
        interface, out, source = cli
        interface.execute(f"deploy {source}")
        interface.execute("util")
        text = output(out)
        assert "rpb1" in text and "ingress" in text and "egress" in text

    def test_profile(self, cli):
        interface, out, _ = cli
        interface.execute("profile")
        text = output(out)
        assert "latency (cycles): (306, 316, 622)" in text


class TestMemory:
    def test_mem_write_read(self, cli):
        interface, out, source = cli
        interface.execute(f"deploy {source}")
        interface.execute("mem write 1 mem1 10 0xbeef")
        interface.execute("mem read 1 mem1 10")
        assert "mem1[10] = 48879 (0xbeef)" in output(out)

    def test_mem_bad_usage(self, cli):
        interface, out, _ = cli
        interface.execute("mem read 1")
        assert "usage:" in output(out)


class TestAddCase:
    def test_addcase_serves_new_key(self, cli):
        interface, out, source = cli
        interface.execute(f"deploy {source}")
        interface.execute(
            "addcase 1 --cond har,1,0xff --cond sar,0,0xffffffff "
            "--cond mar,0x4242,0xffffffff --template 0 --loadi 32"
        )
        assert "added case" in output(out)
        interface.execute("mem write 1 mem1 32 777")
        hit = interface.dataplane.process(make_cache(1, 2, op=NC_READ, key=0x4242))
        assert hit.verdict is Verdict.REFLECT
        assert hit.packet.get_field("hdr.nc.val") == 777


class TestSession:
    def test_unknown_command(self, cli):
        interface, out, _ = cli
        interface.execute("frobnicate")
        assert "unknown command" in output(out)

    def test_quit_ends_repl(self, cli):
        interface, out, source = cli
        stream = io.StringIO(f"deploy {source}\nquit\nlist\n")
        interface.repl(stream)
        assert "no programs running" not in output(out)  # list never ran

    def test_comments_and_blank_lines(self, cli):
        interface, out, _ = cli
        interface.execute("  # a comment")
        interface.execute("")
        assert "error" not in output(out)

    def test_help(self, cli):
        interface, out, _ = cli
        interface.execute("help")
        assert "deploy <file>" in output(out)


class TestChainMode:
    def test_main_chain_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.programs import PROGRAMS

        source = tmp_path / "cache.rp"
        source.write_text(PROGRAMS["cache"].source)
        assert main(["--chain", "2", "-c", f"deploy {source}", "-c", "list"]) == 0
        out = capsys.readouterr().out
        assert "deployed 'cache'" in out
        assert "cache" in out

    def test_chain_util_shows_all_hops(self, capsys):
        from repro.cli import main

        assert main(["--chain", "2", "-c", "util"]) == 0
        out = capsys.readouterr().out
        assert "rpb46" in out  # global numbering spans both hops


class TestTraceCommand:
    def test_trace_from_pcap(self, cli, tmp_path):
        from repro.rmt.packet import make_cache
        from repro.rmt.wire import save_pcap

        interface, out, source = cli
        interface.execute(f"deploy {source}")
        capture = tmp_path / "probe.pcap"
        save_pcap(capture, [make_cache(1, 2, op=1, key=0x8888)])
        interface.execute(f"trace {capture}")
        text = output(out)
        assert "set_program" in text
        assert "MEMREAD" in text
        assert "verdict: reflect" in text

    def test_trace_bad_index(self, cli, tmp_path):
        from repro.rmt.packet import make_udp
        from repro.rmt.wire import save_pcap

        interface, out, _ = cli
        capture = tmp_path / "one.pcap"
        save_pcap(capture, [make_udp(1, 2, 3, 4)])
        interface.execute(f"trace {capture} 5")
        assert "error:" in output(out)

    def test_trace_usage(self, cli):
        interface, out, _ = cli
        interface.execute("trace")
        assert "usage:" in output(out)


class TestPsCommand:
    def test_ps_empty(self, cli):
        interface, out, _ = cli
        interface.execute("ps")
        assert "no programs running" in output(out)

    def test_ps_lists_structured_columns(self, cli):
        interface, out, source = cli
        interface.execute(f"deploy {source}")
        interface.execute("ps")
        text = output(out)
        assert "ID" in text and "LOGIC RPBS" in text
        assert "#1" in text and "cache" in text and "running" in text
        assert "mem1:256@rpb" in text

    def test_ps_matches_list_programs(self, cli):
        interface, out, source = cli
        interface.execute(f"deploy {source}")
        listing = interface.controller.list_programs()
        assert len(listing) == 1
        info = listing[0]
        assert info["name"] == "cache"
        assert info["entries"] == 17
        assert info["state"] == "running"
        assert info["memory"]["mem1"]["size"] == 256


class TestServiceSubcommands:
    def test_serve_and_client_round_trip(self, tmp_path):
        """`p4runpro client` drives a live control service."""
        import json

        from repro.cli import client_main
        from repro.programs import PROGRAMS
        from repro.service import ControlService, ServerThread

        source = tmp_path / "cache.rp"
        source.write_text(PROGRAMS["cache"].source)
        with ServerThread(ControlService()) as server:
            port = str(server.port)
            assert client_main(["ping", "--port", port]) == 0
            assert (
                client_main(
                    ["deploy", f"source=@{source}", "--port", port, "--tenant", "alice"]
                )
                == 0
            )
            assert client_main(["list", "--port", port, "--tenant", "alice"]) == 0
            # structured errors exit non-zero
            assert (
                client_main(["revoke", "program_id=99", "--port", port]) == 1
            )

    def test_serve_announces_only_a_bound_socket(self):
        """`p4runpro serve` prints its listening line once the socket is
        bound: a client that connects on that line is served."""
        import os
        import selectors
        import signal
        import subprocess
        import sys
        import time

        from repro.cli import client_main

        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            line = ""
            selector = selectors.DefaultSelector()
            selector.register(proc.stdout, selectors.EVENT_READ)
            deadline = time.monotonic() + 60
            while "listening on" not in line:
                assert time.monotonic() < deadline, "no listening line"
                if selector.select(timeout=1):
                    line = proc.stdout.readline()
                    assert line, "serve exited before listening"
            port = line.rsplit(":", 1)[1].strip()
            assert int(port) > 0
            assert client_main(["ping", "--port", port]) == 0
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def test_client_param_parsing_errors(self, capsys):
        from repro.cli import client_main

        with pytest.raises(SystemExit):
            client_main(["deploy", "not-a-pair", "--port", "1"])
