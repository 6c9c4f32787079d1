"""Package-level contracts: the public name list and the runtime dependencies."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys

import mc_arelab


def test_public_names_resolve_once():
    infos = pkgutil.iter_modules(mc_arelab.__path__)
    submodules = [importlib.import_module(f"mc_arelab.{info.name}") for info in infos]
    for module in [mc_arelab] + submodules:
        names = getattr(module, "__all__", ())
        assert len(names) == len(set(names)), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_readme_library_block_runs():
    # the README's library example uses the public API as it stands
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_cli_runs_without_scipy():
    # the runtime needs NumPy alone; SciPy is a test oracle only
    src = os.path.dirname(os.path.dirname(os.path.abspath(mc_arelab.__file__)))
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from mc_arelab.cli import main\n"
        "sys.exit(main(['detect']) or main(['detect', '--interferers', '200']))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "theta_opt" in done.stdout
    assert "# n_interferers = 200" in done.stdout
