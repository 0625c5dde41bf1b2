import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _run(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return out.stdout


def test_package_imports_neither_scipy_nor_requests():
    """The package never imports SciPy, and nothing imports requests."""
    code = (
        "import sys\n"
        "import bookcoref, bookcoref.cli, bookcoref.remote\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'requests'}))\n"
    )
    assert _run(code).strip() == "[]"


def test_ceaf_phi4_and_score_command_run_without_scipy(tmp_path):
    """With SciPy unimportable, CEAF-phi4 scores a table full of ties and the
    score command scores a file against a split of its chains."""
    record = {
        "doc_id": "d",
        "tokens": ["w"] * 12,
        "characters": ["A", "B", "C"],
        "clusters": {"A": [[0, 0], [1, 1], [2, 2], [3, 3]], "B": [[4, 4], [5, 5], [6, 6], [7, 7]], "C": [[8, 8], [9, 9]]},
    }
    key = tmp_path / "key.jsonl"
    key.write_text(json.dumps(record) + "\n")
    record["clusters"] = {"1": [[0, 0], [1, 1], [4, 4], [5, 5]], "2": [[2, 2], [3, 3], [6, 6], [7, 7]], "3": [[8, 8], [9, 9]]}
    response = tmp_path / "response.jsonl"
    response.write_text(json.dumps(record) + "\n")
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from bookcoref.metrics import ceaf_phi4\n"
        "from bookcoref import cli\n"
        "key = [['a', 'b'], ['c', 'd'], ['e', 'f']]\n"
        "response = [['a', 'c'], ['b', 'e'], ['d', 'f']]\n"
        "print(ceaf_phi4(key, response).f1)\n"
        "sys.exit(cli.main(['score', '--json', sys.argv[1], sys.argv[2]]))\n"
    )
    out = _run(code, str(key), str(response))
    f1, report = out.split("\n", 1)
    assert float(f1) == 0.5
    payload = json.loads(report[report.index("\n{") :])
    # chains A and B are each split in half across response clusters 1 and
    # 2, so either alignment of them scores 0.5 + 0.5; C is matched whole
    assert payload["pooled"]["ceaf_phi4"]["counts"] == [2.0, 3.0, 2.0, 3.0]
    assert "scipy" not in out
