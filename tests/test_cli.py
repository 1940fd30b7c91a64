import subprocess
import sys
from pathlib import Path

from plf.cli import main

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_prove_writes_verifiable_proof(hilbert_path, tmp_path, capsys):
    out_path = tmp_path / "id.plp"
    code, out, err = run_cli(
        capsys,
        "prove", str(hilbert_path), "--statement", "id",
        "--max-depth", "6", "--timeout", "10", "-o", str(out_path),
    )
    assert code == 0
    assert out_path.exists()
    assert "nodes=" in out and "spts=" in out and "tuples_tested=" in out
    code, out, _ = run_cli(capsys, "verify", str(hilbert_path), str(out_path), "--statement", "id")
    assert code == 0
    assert out.strip() == "valid"


def test_prove_unknown_statement(hilbert_path, capsys):
    code, _, err = run_cli(capsys, "prove", str(hilbert_path), "--statement", "missing")
    assert code == 2
    assert "unknown statement" in err


def test_prove_node_cap(hilbert_path, capsys):
    code, _, err = run_cli(
        capsys, "prove", str(hilbert_path), "--statement", "id", "--max-nodes", "1"
    )
    assert code == 1
    assert "nodes" in err


def test_prove_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "prove", str(tmp_path / "nope.pls"), "--statement", "id")
    assert code == 2


def test_verify_corrupted_witness(hilbert_path, tmp_path, capsys):
    out_path = tmp_path / "id.plp"
    run_cli(capsys, "prove", str(hilbert_path), "--statement", "id", "-o", str(out_path))
    text = out_path.read_text()
    # corrupt the first witness binding image
    corrupted = text.replace(':= "( p ->', ':= "( q ->', 1)
    assert corrupted != text
    bad_path = tmp_path / "bad.plp"
    bad_path.write_text(corrupted)
    code, out, _ = run_cli(capsys, "verify", str(hilbert_path), str(bad_path), "--statement", "id")
    assert code == 1
    assert "violation" in out


def test_verify_truncated_proof(hilbert_path, tmp_path, capsys):
    out_path = tmp_path / "id.plp"
    run_cli(capsys, "prove", str(hilbert_path), "--statement", "id", "-o", str(out_path))
    truncated = out_path.read_text()[:40]
    bad_path = tmp_path / "trunc.plp"
    bad_path.write_text(truncated)
    code, _, err = run_cli(capsys, "verify", str(hilbert_path), str(bad_path), "--statement", "id")
    assert code == 2


def test_oracle_exit_codes(hilbert_path, tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "oracle", str(hilbert_path), "--statement", "id",
        "--max-size", "17", "--max-rounds", "5",
    )
    assert code == 0
    assert "goal derived" in out

    unprovable = tmp_path / "q.pls"
    unprovable.write_text(
        hilbert_path.read_text() + 'statement q_alone : => "q"\n'
    )
    code, _, err = run_cli(
        capsys,
        "oracle", str(unprovable), "--statement", "q_alone",
        "--max-size", "9", "--max-rounds", "3",
    )
    assert code == 1

    code, _, _ = run_cli(capsys, "oracle", str(tmp_path / "ghost.pls"), "--statement", "id")
    assert code == 2


def test_oracle_dump_derived(hilbert_path, tmp_path, capsys):
    dump = tmp_path / "derived.txt"
    code, _, _ = run_cli(
        capsys,
        "oracle", str(hilbert_path), "--statement", "id",
        "--max-size", "13", "--max-rounds", "2", "--dump-derived", str(dump),
    )
    lines = dump.read_text().splitlines()
    assert lines == sorted(lines) and lines


def test_trace_goes_to_stderr(hilbert_path, capsys):
    code, out, err = run_cli(
        capsys, "prove", str(hilbert_path), "--statement", "id", "--trace"
    )
    assert code == 0
    assert "EXPAND e0" in err
    assert "PROVED e0" in err
    assert "EXPAND" not in out


def test_trace_stream_is_golden(capsys):
    # the full --trace stream of id at depth 6, recorded once; any change to
    # the search's events, their order or their text shows up here
    code, _, err = run_cli(
        capsys, "prove", str(DATA / "hilbert.pls"), "--statement", "id", "--max-depth", "6",
        "--trace",
    )
    assert code == 0
    assert err.encode("utf-8") == (DATA / "id_depth6.trace").read_bytes()


def test_verify_deeply_nested_proof_is_a_load_error(hilbert_path, tmp_path):
    # nesting beyond the recursion limit is reported as one error line, exit 2
    depth = 1500
    deep = tmp_path / "deep.plp"
    deep.write_text('(step "p" by A1 with { } from ' * depth + '(hyp "p")' + ")" * depth)
    proc = subprocess.run(
        [sys.executable, "-m", "plf", "verify", str(hilbert_path), str(deep),
         "--statement", "id"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_repeated_runs_byte_identical(hilbert_path, tmp_path):
    # full-process determinism, including statistics except wall time
    outputs = []
    stats = []
    for i in range(2):
        proof = tmp_path / f"run{i}.plp"
        proc = subprocess.run(
            [sys.executable, "-m", "plf", "prove", str(hilbert_path),
             "--statement", "id", "-o", str(proof)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        outputs.append(proof.read_bytes())
        stats.append([l for l in proc.stdout.splitlines() if not l.startswith("wall_time")])
    assert outputs[0] == outputs[1]
    assert stats[0] == stats[1]
