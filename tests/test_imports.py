import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def test_package_imports_neither_scipy_nor_requests():
    """SciPy loads only when CEAF-phi4 first runs, and nothing imports requests."""
    code = (
        "import sys\n"
        "import bookcoref, bookcoref.cli, bookcoref.remote\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'requests'}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"

