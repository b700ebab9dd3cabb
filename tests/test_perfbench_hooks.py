"""perfbench's traced runs (`--trace 1`) wrap isokit functions by module
attribute name (`wrap_layers` in perfbench/run.py).  Removing a name it
wraps, such as `cli.verify_triangle`, which `cli` imports only for this,
breaks every traced run with an AttributeError; this test catches that."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_verify_records_cli_and_sampler_spans(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import tracing

    from isokit import cli

    tracer = tracing.Tracer()
    run.wrap_layers(tracer)
    tracer.install()
    try:
        code = cli.main(["verify", "--samples", "2"])
    finally:
        tracer.restore()
    capsys.readouterr()
    assert code == 0
    names = {rec[tracing.NAME] for rec in tracer.spans}
    assert {"cli.main", "sampling.sample_canonical_triangles"} <= names
