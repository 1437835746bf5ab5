//! Metric names, units, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run. The same names
/// serve every workload; README.md gives each one's meaning per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Throughput and tail latencies: on the stderr report of every run and
/// per-layer (`run.*`) in a traced run, but not gated end to end. On a
/// shared 2-core host their run-to-run spread reached 0.27 (federated
/// throughput) and 0.37 (tails) of the median, beyond the largest bound
/// an end-to-end metric may have.
pub const UNGATED: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("op_tail_ms", "ms"),
    ("read_tail_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.self_ms_per_relation", "ms"),
    ("core.entity_relation_ms_p50", "ms"),
    ("core.literal_relation_ms_p50", "ms"),
    ("endpoint.exec_us_p50", "us"),
    ("endpoint.exec_busy_share", "ratio"),
    ("endpoint.select_calls_per_relation", "count"),
    ("endpoint.ask_calls_per_relation", "count"),
    ("endpoint.count_calls_per_relation", "count"),
    ("endpoint.batch_calls_per_relation", "count"),
    ("endpoint.batch_leaves_per_call", "count"),
    ("endpoint.rows_per_call", "count"),
    ("endpoint.dispatch_us_p50", "us"),
    ("sparql.parse_us_p50", "us"),
    ("sparql.eval_us_p50", "us"),
    ("sparql.rows_per_query", "count"),
    ("net.rtt_us_p50", "us"),
    ("net.rtt_us_p99", "us"),
    ("net.server_exec_us_p50", "us"),
    ("net.overhead_us_p50", "us"),
    ("net.codec_us_p50", "us"),
    ("net.transport_us_p50", "us"),
    ("net.request_bytes_per_call", "bytes"),
    ("net.response_bytes_per_call", "bytes"),
    ("net.ingest_parse_us_p50", "us"),
    ("service.queue_wait_p99_us", "us"),
    ("service.rejected", "count"),
    ("service.shed", "count"),
    ("stream.sink_ms_p50", "ms"),
    ("stream.sink_ms_p99", "ms"),
    ("stream.live_triples", "count"),
    ("stream.delta_mutations_per_publish", "count"),
    ("durability.load_batch_us_p50", "us"),
    ("durability.commit_ms_p50", "ms"),
    ("durability.commit_ms_p99", "ms"),
    ("durability.fsync_us_p50", "us"),
    ("durability.fsync_us_p99", "us"),
    ("durability.wal_bytes_per_commit", "bytes"),
    ("durability.wal_bytes_per_triple", "bytes"),
    ("durability.disk_bytes", "bytes"),
    ("align.queries_per_relation", "count"),
    ("align.rows_per_relation", "count"),
    ("align.rule_f1", "ratio"),
    ("ingest.visible_p99_ms", "ms"),
    ("ingest.generator_late_ms_max", "ms"),
    ("run.ops_per_s", "1/s"),
    ("run.op_tail_ms", "ms"),
    ("run.read_tail_ms", "ms"),
    ("run.op_samples", "count"),
    ("run.read_samples", "count"),
    ("run.failed_ratio", "ratio"),
    ("run.host_steal_share", "ratio"),
    ("trace.untraced_op_p50_ms", "ms"),
    ("trace.traced_op_p50_ms", "ms"),
    ("trace.untraced_read_p50_ms", "ms"),
    ("trace.traced_read_p50_ms", "ms"),
    ("trace.op_p50_overhead", "ratio"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The result line: every metric of `names`, each a finite number.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    values: &Values,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let value = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number: {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(UNGATED).chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(!unit.is_empty() && unit.len() <= 16);
        }
    }

    #[test]
    fn result_line_needs_every_metric() {
        let mut values = Values::new();
        values.insert("setup_s", 1.5);
        assert!(result_json(true, 1, 0, &END_TO_END[..1], &values)
            .unwrap()
            .contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(result_json(true, 1, 0, END_TO_END, &values).is_err());
    }
}
