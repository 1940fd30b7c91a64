import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from plf import AmbiguousParseError, load_system, parse_proof, serialize_proof
from plf.cli import main
from conftest import HILBERT_PLS
from helpers import NAT_PLS, successor_chain_proof

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


def test_prove_output_is_replaced_atomically(hilbert_path, tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "proofs"
    out_dir.mkdir()
    out_path = out_dir / "id.plp"
    argv = ("prove", str(hilbert_path), "--statement", "id", "-o", str(out_path))
    out_path.write_text("old proof\n")
    # a write that fails before the rename leaves the old file and no debris
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "rename refused" in err
    assert out_path.read_text() == "old proof\n"
    assert os.listdir(out_dir) == ["id.plp"]
    monkeypatch.undo()

    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert os.listdir(out_dir) == ["id.plp"]
    _, printed, _ = run_cli(capsys, *argv[:-2])  # the same proof on stdout
    assert printed.endswith(out_path.read_text())
    assert out_path.read_text().startswith("(step ")


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


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("prove", "--timeout", "nan"),  # a NaN deadline would never pass
        ("prove", "--timeout", "-1"),
        ("prove", "--max-depth", "-1"),
        ("prove", "--max-nodes", "-1"),
        ("prove", "--max-spts-per-node", "-5"),
        ("oracle", "--max-size", "-3"),
        ("oracle", "--max-rounds", "-1"),
    ],
)
def test_negative_or_nan_limit_is_a_usage_error(hilbert_path, capsys, command, option, value):
    with pytest.raises(SystemExit) as stop:
        main([command, str(hilbert_path), "--statement", "id", f"{option}={value}"])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        f"plf {command}: error: argument {option}: must be a number >= 0, not {value!r}"
    ]


def test_node_limit_below_one_is_a_usage_error(hilbert_path, capsys):
    # the root goal exists before the search weighs any node against the limit
    with pytest.raises(SystemExit) as stop:
        main(["prove", str(hilbert_path), "--statement", "id", "--max-nodes", "0"])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        "plf prove: error: argument --max-nodes: must be >= 1, since the root goal is a node, not '0'"
    ]


def test_ambiguous_sum_is_refused_at_once(tmp_path, capsys):
    # a 40-term sum has Catalan(39), about 10**21, parse trees; the chart
    # keeps two per entry, which is enough to call it ambiguous
    text = (
        'kind s\nvar x y : s\nrule atom : s ::= "a"\nrule cat : s ::= s "+" s\n'
        'axiom join : => "x + y"\n'
        f'statement big : => "{" + ".join(["a"] * 40)}"\n'
    )
    started = time.monotonic()
    with pytest.raises(AmbiguousParseError, match="is ambiguous: at least 2 parse trees"):
        load_system(text)
    assert time.monotonic() - started < 1.0
    path = tmp_path / "sum.pls"
    path.write_text(text)
    code, out, err = run_cli(capsys, "prove", str(path), "--statement", "big")
    assert (code, out) == (2, "")
    assert err.startswith("error: line 6: ") and err.endswith("is ambiguous: at least 2 parse trees\n")


def test_limit_that_is_no_number_names_its_type(hilbert_path, capsys):
    with pytest.raises(SystemExit) as stop:
        main(["prove", str(hilbert_path), "--statement", "id", "--max-nodes", "x"])
    assert stop.value.code == 2
    assert "error: argument --max-nodes: invalid int value: 'x'" in capsys.readouterr().err


def test_infinite_timeout_is_allowed(hilbert_path, capsys):
    code, out, _ = run_cli(
        capsys, "prove", str(hilbert_path), "--statement", "id",
        "--max-depth", "6", "--timeout", "inf",
    )
    assert code == 0 and out.rstrip().endswith(")")


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


def test_oracle_dump_is_replaced_atomically(hilbert_path, tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "dumps"
    out_dir.mkdir()
    dump = out_dir / "derived.txt"
    argv = ("oracle", str(hilbert_path), "--statement", "id",
            "--max-size", "13", "--max-rounds", "2", "--dump-derived", str(dump))
    dump.write_text("old dump\n")
    # a write that fails before the rename leaves the old file and no debris
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "rename refused" in err
    assert dump.read_text() == "old dump\n"
    assert os.listdir(out_dir) == ["derived.txt"]
    monkeypatch.undo()

    code, out, _ = run_cli(capsys, *argv)
    assert code == 1  # id is not derived at 13 tokens
    assert os.listdir(out_dir) == ["derived.txt"]
    lines = dump.read_text().splitlines()
    assert f"derived={len(lines)}" in out.splitlines()


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


def _mp_chain(depth, wrong_at=None):
    """The .plp text of a proof of p from p and ( p -> p ) by ``depth`` MP
    steps, each nested in the one above it.  The step at depth ``wrong_at``
    carries a witness that instantiates MP to q instead of p."""
    witness = '{{ ph := "p" ; ps := "{}" }}'
    lines = [
        "  " * k + f'(step "p" by MP with {witness.format("q" if k == wrong_at else "p")} from'
        for k in range(depth)
    ]
    lines.append("  " * depth + '(hyp "p")')
    lines += ["  " * k + '(hyp "( p -> p )"))' for k in range(depth, 0, -1)]
    return "\n".join(lines) + "\n"


CHAIN_PLS = HILBERT_PLS + 'statement chain : "p" "( p -> p )" => "p"\n'


def _verify_chain(tmp_path, text):
    system, proof = tmp_path / "chain.pls", tmp_path / "chain.plp"
    system.write_text(CHAIN_PLS)
    proof.write_text(text)
    return subprocess.run(
        [sys.executable, "-m", "plf", "verify", str(system), str(proof), "--statement", "chain"],
        capture_output=True, text=True, timeout=60,
    )


def test_verify_deeply_nested_proof(tmp_path):
    # 1,500 nested steps: every proof walker keeps its own stack
    text = _mp_chain(1500)
    assert serialize_proof(parse_proof(text, load_system(CHAIN_PLS))) == text
    proc = _verify_chain(tmp_path, text)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "valid\n", "")


def test_verify_deeply_nested_violation_reports_its_path(tmp_path):
    proc = _verify_chain(tmp_path, _mp_chain(1500, wrong_at=1000))
    path = "0" + ".0" * 1000
    assert proc.returncode == 1 and proc.stderr == ""
    assert proc.stdout.splitlines() == [
        f"violation at {path}.1: premise 1 of MP: witness instance is '( p -> q )' "
        "but node reads '( p -> p )'",
        f"violation at {path}: proposition of MP: witness instance is 'q' but node reads 'p'",
    ]


def test_prove_deep_successor_chain(tmp_path):
    # 1,200 goal levels: certificate propagation and proof extraction keep
    # their own stacks, so the search is not bounded by the recursion limit
    system, proof = tmp_path / "nat.pls", tmp_path / "deep.plp"
    system.write_text(NAT_PLS + 'statement deep : => "N' + " s" * 1200 + ' z"\n')
    plf = [sys.executable, "-m", "plf"]
    proc = subprocess.run(
        [*plf, "prove", str(system), "--statement", "deep", "--max-depth", "2000", "-o", str(proof)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(
        [*plf, "verify", str(system), str(proof), "--statement", "deep"],
        capture_output=True, text=True, timeout=30,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "valid\n", "")


def test_verify_3000_level_successor_chain(tmp_path, capsys):
    # a 27 MB proof whose every step repeats its whole expression: the
    # parser charts each distinct span of the file once
    system, proof = tmp_path / "nat.pls", tmp_path / "deep.plp"
    system.write_text(NAT_PLS + 'statement deep : => "N' + " s" * 3000 + ' z"\n')
    proof.write_text(successor_chain_proof(3000))
    code, out, err = run_cli(capsys, "verify", str(system), str(proof), "--statement", "deep")
    assert (code, out, err) == (0, "valid\n", "")


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
