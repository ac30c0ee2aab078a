"""Tests for the CLI commands past the basics: sweep, vcd, snapshot and
restore, and serve-demo."""

import pytest

from repro import obs
from repro.cli import _build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_sweep_block(capsys):
    code, out = run(capsys, "sweep", "block", "--sizes", "32,64")
    assert code == 0
    assert "srch cy" in out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 3  # header + two sizes


def test_sweep_unit(capsys):
    code, out = run(capsys, "sweep", "unit", "--sizes", "128")
    assert code == 0
    assert "4800" in out


def test_snapshot_restore_roundtrip(tmp_path, capsys):
    path = tmp_path / "demo.camsnap"
    code, out = run(capsys, "snapshot", "--out", str(path),
                    "--entries", "64", "--seed", "7")
    assert code == 0
    assert "content hash:" in out
    code, out = run(capsys, "restore", str(path), "--verify")
    assert code == 0
    assert "verify ok" in out


def test_restore_config_mismatch_exits_nonzero(tmp_path, capsys):
    """Restoring onto a session whose geometry disagrees with the
    snapshot must exit 1 with a one-line diagnostic naming both
    configs (the snapshot's and the target's)."""
    path = tmp_path / "demo.camsnap"
    assert run(capsys, "snapshot", "--out", str(path),
               "--entries", "64")[0] == 0
    code = main(["restore", str(path), "--entries", "32",
                 "--block-size", "32"])
    captured = capsys.readouterr()
    assert code == 1
    error_lines = [line for line in captured.err.splitlines()
                   if line.startswith("error:")]
    assert len(error_lines) == 1
    line = error_lines[0]
    assert "snapshot/config mismatch" in line
    assert "snapshot[kind=unit entries=64" in line
    assert "target[kind=unit entries=32" in line


def test_restore_data_width_mismatch_names_both_widths(tmp_path, capsys):
    path = tmp_path / "demo.camsnap"
    assert run(capsys, "snapshot", "--out", str(path),
               "--entries", "64")[0] == 0
    code = main(["restore", str(path), "--data-width", "16"])
    captured = capsys.readouterr()
    assert code == 1
    assert "data_width=48" in captured.err  # the snapshot's
    assert "data_width=16" in captured.err  # the target's


def test_restore_truncated_snapshot_is_a_decode_error(tmp_path, capsys):
    path = tmp_path / "demo.camsnap"
    assert run(capsys, "snapshot", "--out", str(path),
               "--entries", "64")[0] == 0
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    code = main(["restore", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "cannot decode" in captured.err


def test_vcd_command(tmp_path, capsys):
    out_file = tmp_path / "trace.vcd"
    code, out = run(capsys, "vcd", "--out", str(out_file))
    assert code == 0
    assert out_file.exists()
    text = out_file.read_text()
    assert text.startswith("$date")
    assert "$enddefinitions $end" in text


@pytest.mark.parametrize("command,delay_ms", [("serve-demo", 2.0),
                                              ("serve", 1.0)])
def test_service_commands_keep_their_defaults(command, delay_ms):
    args = _build_parser().parse_args([command])
    assert args.max_delay_ms == delay_ms
    assert (args.shards, args.engine, args.timeout_ms) == (4, "batch", 5000.0)


@pytest.mark.parametrize("poison", [[], ["--poison-shard", "2"]])
def test_serve_demo_manifest(tmp_path, capsys, poison):
    path = tmp_path / "serve.json"
    code, out = run(capsys, "serve-demo", "--requests", "400",
                    "--manifest-out", str(path), *poison)
    assert code == 0
    extra = obs.load_manifest(str(path))["extra"]
    assert extra["requests"] == extra["ok"] + extra["shard_failures"] == 400
    assert extra["rejected"] == extra["timeouts"] == 0
    assert extra["simulated_cycles"] > 0
    if poison:  # the other shards keep serving
        assert "poisoned_shards" in out
        assert extra["poisoned_shards"] == [2]
        assert extra["shard_failures"] > 0 and extra["ok"] > 0
    else:
        assert extra["poisoned_shards"] == [] and extra["ok"] == 400
