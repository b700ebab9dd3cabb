"""perfbench's traced runs (`--trace 1`) wrap isokit functions by module
attribute name (`wrap_layers` in perfbench/run.py).  Removing a name it
wraps, such as `cli.verify_triangle`, which `cli` imports only for this,
breaks every traced run with an AttributeError; this test catches that."""

from pathlib import Path

from isokit import Point, Triangle

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


# The per-layer view needs the oracle and the closed form to call the
# functions perfbench wraps by those module attributes: `verify_triangle`
# reaches the oracle through `oracle.brute_force_min_isosceles`,
# `minimum_isosceles_container` builds its candidates through
# `minimize.first_kind` and `minimize.second_kind`, and the `closed_form`
# op decides `can_cover` both ways through `ops.cover_accept` and
# `ops.cover_reject`.

SCALENE = Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(1.0, 3.0))


def _traced_span_names(monkeypatch, op_name: str) -> set[str]:
    """Span names of one traced perfbench op on SCALENE."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import ops
    import run
    import tracing

    tracer = tracing.Tracer()
    run.wrap_layers(tracer)
    tracer.install()
    try:
        getattr(ops, op_name)(SCALENE)
    finally:
        tracer.restore()
    return {rec[tracing.NAME] for rec in tracer.spans}


def test_traced_oracle_posed_records_the_oracle_span(monkeypatch):
    assert "oracle.brute_force_min_isosceles" in _traced_span_names(monkeypatch, "oracle_posed")


def test_traced_closed_form_records_the_container_spans(monkeypatch):
    assert {
        "minimize.minimum_isosceles_container",
        "containers.first_kind",
        "containers.second_kind",
    } <= _traced_span_names(monkeypatch, "closed_form")


def test_traced_closed_form_records_both_can_cover_spans(monkeypatch):
    assert {"oracle.can_cover.accept", "oracle.can_cover.reject"} <= _traced_span_names(monkeypatch, "closed_form")
