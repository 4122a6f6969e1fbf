"""Run one foldcob command in this fresh interpreter, with spans.

    python3 perfbench/cli_driver.py SPANS_FILE TRACE_ID ARGV...

Records a span for ``import foldcob.cli``, one for ``cli.main(ARGV)`` and,
inside it, one for every call the command makes from the cli module into
a layer function.  The spans are written to SPANS_FILE at exit; stdout,
stderr and the exit code are the command's own.
"""

import sys

from spans import Tracer

# cli-module global -> span name
LAYER_CALLS = {
    "catalog": "catalog.build",
    "hypercohomology": "catalog.hypercohomology",
    "suspension_map": "catalog.suspension_map",
    "homology": "complexes.homology",
    "graph_from_json": "reeb.graph_from_json",
    "invariants": "reeb.invariants",
    "reduce_to_normal_form": "reeb.reduce_to_normal_form",
    "cobordant": "reeb.cobordant",
    "diagram_from_json": "diagrams.diagram_from_json",
    "cusp_count_closed": "diagrams.cusp_count_closed",
    "cusp_count_boundary": "diagrams.cusp_count_boundary",
}


def main():
    spans_file, trace_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    with tracer.span("cli.import", trace_id):
        from foldcob import cli
    for name, span_name in LAYER_CALLS.items():
        fn = getattr(cli, name)
        setattr(cli, name,
                lambda *a, _fn=fn, _n=span_name, **kw: tracer.call(_n, _fn, *a, **kw))
    try:
        with tracer.span("cli.main", trace_id):
            code = cli.main(argv)
    finally:
        tracer.write(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
