"""The benchmark's per-layer spans count the CLI's batches and exports once each, and all come off again.

bench/spans.py wraps names of ``cli`` and ``sampler`` that the CLI looks up
when a command runs. Run in a fresh interpreter, so that the tracer is
installed before anything reads a ``cli`` name, as in a traced benchmark run.
"""

from conftest import REFERENCE_CONFIG, REPO_ROOT
from test_package import fresh

CODE = """\
import importlib, json, sys
from pathlib import Path
sys.path.insert(0, {bench!r})
import spans
from cfgctrl import cli
out = Path({out!r})
with spans.Tracer() as tracer:
    codes = [cli.main(["run", "--config", {config!r}, "--out", str(out / "run")]),
             cli.main(["compare", "--config", {config!r}, "--out", str(out / "compare"), "--controllers", "cfg,smc"])]
left = [f"{{m}}.{{a}}" for m, a, _, _ in spans.SPANS
        if getattr(getattr(importlib.import_module("cfgctrl." + m), a), "__module__", None) == "spans"]
sizes = {{suffix: next((out / "run").glob("run_*_" + suffix)).stat().st_size for suffix in ("traces.csv", "traces.json")}}
print(json.dumps([codes, tracer.stats["sampler.run_batch"].calls, dict(tracer.counts), sizes, left]))
"""


def test_a_traced_run_and_compare_count_each_batch_and_export_once(tmp_path):
    code = CODE.format(bench=str(REPO_ROOT / "bench"), out=str(tmp_path), config=str(REFERENCE_CONFIG))
    codes, batches, counts, sizes, left = fresh(code)
    assert codes == [0, 0]
    assert batches == 1  # the run's batch; compare steps its laws in one lockstep pass, not through run_batch
    assert counts["sampler.traces_to_csv.bytes"] == sizes["traces.csv"]
    assert counts["sampler.traces_to_json.bytes"] == sizes["traces.json"]
    assert left == [], "a span wrapper stayed bound after the tracer exited"
