"""Every subcommand runs where only numpy is installed.

Each run is a child interpreter in which jsonschema, hypothesis and scipy
cannot be imported.  It must exit as usual and load none of them, and a run
that has no pool to start must not import the process pool either.
"""

import json
import subprocess
import sys

import pytest

from conftest import README_CONFIGS, cli_env
from test_cli import write_config, write_kraus_file

OPTIONAL = ("jsonschema", "hypothesis", "scipy")

GUARD = f"""
import json, sys
for name in {OPTIONAL!r}:
    sys.modules[name] = None  # any import of it now fails
from decolab import cli
code = cli.main(sys.argv[1:])
loaded = sorted(
    name for name, module in sys.modules.items()
    if module is not None
    and (name.split(".")[0] in {OPTIONAL!r} or name == "concurrent.futures.process")
)
print(json.dumps({{"code": code, "loaded": loaded}}))
"""

# the subcommands that may start a pool at the default --workers
POOLED = {"spin-bath", "oracle-compare"}
(_MEASURE,) = [c for c in README_CONFIGS if c["experiment"] == "measure"]

# (id, config or None, extra flags, exit code)
RUNS = [
    *[(c["experiment"], c, [], 0) for c in README_CONFIGS],
    *[(f"{c['experiment']}-serial", c, ["--workers", "1"], 0)
      for c in README_CONFIGS if c["experiment"] in POOLED],
    ("check", None, [], 0),
    ("bad-kraus-file", dict(_MEASURE, kraus_file="list-kraus.json"), [], 2),
]


@pytest.mark.parametrize("config, flags, code", [pytest.param(*run[1:], id=run[0]) for run in RUNS])
def test_runs_without_the_optional_modules(tmp_path, config, flags, code):
    write_kraus_file(tmp_path, _MEASURE)
    (tmp_path / "list-kraus.json").write_text("[]", encoding="utf-8")
    if config is None:
        args = ["check"]
    else:
        args = [config["experiment"], "--config", write_config(tmp_path / "config.json", config)]
    proc = subprocess.run(
        [sys.executable, "-c", GUARD, *args, "--out", "out", "--quiet", *flags],
        capture_output=True, text=True, env=cli_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == code
    if config is not None and config["experiment"] in POOLED and not flags:
        assert set(report["loaded"]) <= {"concurrent.futures.process"}
    else:
        assert report["loaded"] == []
    if code == 0:
        assert proc.stderr == "" and any((tmp_path / "out").iterdir())
    else:
        assert proc.stderr.startswith("decolab: ") and proc.stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()
