"""Per-layer metrics from the traced replay's spans.

A span is ``(record, name, start_ns, end_ns, parent)``. A layer's self
time is its spans' durations minus the time their child spans cover; the
self-time shares are taken of the summed ``record`` spans, and whatever
they leave is the replay's own glue code.
"""

import math

LAYER_OF_SPAN = {
    "ucca_graph.load_graph.xml": "ucca_graph",
    "ucca_graph.load_graph.json": "ucca_graph",
    "ucca_graph.build_graph": "ucca_graph",
    "porter.stem": "porter",
    "core_words.extract_core_words": "core_words",
    "scoring.swss": "scoring",
    "lexical.sentence_bleu": "lexical",
    "lexical.external_score": "lexical",
}
LAYERS = ("ucca_graph", "porter", "core_words", "scoring", "lexical")


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values (a layer that did not run)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)])


def span_metrics(spans: list, speed: float) -> dict:
    """Per-layer metrics; ``speed`` scales durations to the reference speed."""
    durations: dict = {}
    child_ns = [0] * len(spans)
    for record, name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns = {layer: 0 for layer in LAYERS}
    record_ns = 0
    swss_self = []
    for index, (record, name, start, end, parent) in enumerate(spans):
        duration = end - start
        durations.setdefault(name, []).append(duration * speed / 1000.0)
        if name == "record":
            record_ns += duration
        else:
            self_ns[LAYER_OF_SPAN[name]] += duration - child_ns[index]
        if name == "scoring.swss":
            swss_self.append((duration - child_ns[index]) * speed / 1000.0)

    def us(name, q):
        return percentile(durations.get(name, []), q)

    metrics = {
        "ucca_graph.load_graph.xml_us_p50": us("ucca_graph.load_graph.xml", 50),
        "ucca_graph.load_graph.xml_us_p99": us("ucca_graph.load_graph.xml", 99),
        "ucca_graph.load_graph.json_us_p50": us("ucca_graph.load_graph.json", 50),
        "ucca_graph.load_graph.json_us_p99": us("ucca_graph.load_graph.json", 99),
        "ucca_graph.build_graph_us_p50": us("ucca_graph.build_graph", 50),
        "core_words.extract_us_p50": us("core_words.extract_core_words", 50),
        "scoring.swss_us_p50": us("scoring.swss", 50),
        "scoring.swss_self_us_p50": percentile(swss_self, 50),
        "lexical.sentence_bleu_us_p50": us("lexical.sentence_bleu", 50),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_frac"] = self_ns[layer] / record_ns
    metrics["trace.accounted_frac"] = sum(self_ns.values()) / record_ns
    metrics["trace.record_us_p50"] = us("record", 50)
    return metrics
