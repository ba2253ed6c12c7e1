//! Text renderings `query` and `cluster` share: span waterfalls and the
//! `top` dashboard.

use srra_serve::{SnapshotDelta, Span};

use crate::CliError;

/// Renders a span list as an indented waterfall: one line per span with its
/// offset from the trace's earliest span, its duration and its annotations,
/// children nested under their parents in start order.  A span whose parent
/// is absent (evicted from the ring, or held by an unreachable node) prints
/// at the root level rather than disappearing.
fn render_waterfall(spans: &[Span]) -> String {
    use std::collections::{BTreeMap, BTreeSet};
    let ids: BTreeSet<u64> = spans.iter().map(|span| span.span_id).collect();
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|span| (span.start_us, span.span_id));
    let base = sorted.first().map_or(0, |span| span.start_us);
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    let mut roots: Vec<&Span> = Vec::new();
    for span in sorted {
        if span.parent_id != 0 && ids.contains(&span.parent_id) {
            children.entry(span.parent_id).or_default().push(span);
        } else {
            roots.push(span);
        }
    }
    let mut out = String::new();
    let mut stack: Vec<(&Span, usize)> = roots.iter().rev().map(|span| (*span, 0)).collect();
    while let Some((span, depth)) = stack.pop() {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!(
            "{} +{}us {}us",
            span.name,
            span.start_us.saturating_sub(base),
            span.dur_us
        ));
        for (key, value) in &span.annotations {
            out.push_str(&format!(" {key}={value}"));
        }
        out.push('\n');
        if let Some(kids) = children.get(&span.span_id) {
            stack.extend(kids.iter().rev().map(|span| (*span, depth + 1)));
        }
    }
    out
}

/// The text of one `trace <id>` reply: a headline plus the waterfall, or a
/// clear "nothing retained" line for unknown/evicted ids.
pub(crate) fn render_trace_output(id: &str, spans: &[Span]) -> String {
    if spans.is_empty() {
        return format!("trace {id}: no spans retained");
    }
    let mut out = format!("trace {id}: {} span(s)\n", spans.len());
    out.push_str(&render_waterfall(spans));
    out.trim_end().to_owned()
}

/// One line in the `top` column layout: node, state, req/s, hit%, p50, p99,
/// open connections and SLO state.
fn top_line([label, state, req_s, hit, p50, p99, conns, slo]: [&str; 8]) -> String {
    format!("{label:<24} {state:<5} {req_s:>9} {hit:>6} {p50:>7} {p99:>7} {conns:>6}  {slo}")
}

/// One dashboard row of a `top` frame, computed from one node's window
/// delta; `None` (node unreachable, or its sampler off / too fresh) renders
/// as dashes so the fleet table keeps its shape.
fn render_top_row(label: &str, state: &str, delta: Option<&SnapshotDelta>) -> String {
    let dash = || "-".to_owned();
    let Some(delta) = delta else {
        return top_line([label, state, "-", "-", "-", "-", "-", "-"]);
    };
    let req_s = delta
        .rate("serve_requests_total")
        .map_or_else(dash, |rate| format!("{rate:.1}"));
    let hits = delta.diff.counter("serve_hits_total").unwrap_or(0);
    let misses = delta.diff.counter("serve_misses_total").unwrap_or(0);
    let hit = if hits + misses == 0 {
        dash()
    } else {
        format!("{:.1}", hits as f64 * 100.0 / (hits + misses) as f64)
    };
    // Overall request latency: every per-op histogram of the window folded
    // into one, so the quantiles cover the node's whole mix of ops.
    let busy = delta
        .diff
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("serve_op_") && name.ends_with("_latency_us"))
        .map(|(_, histogram)| histogram.clone())
        .reduce(|mut merged, histogram| {
            merged.merge(&histogram);
            merged
        })
        .filter(|histogram| histogram.count() > 0);
    let quantile = |q| {
        busy.as_ref()
            .map_or_else(dash, |h| h.quantile(q).to_string())
    };
    let conns = delta
        .diff
        .gauge("serve_open_connections")
        .map_or_else(dash, |open| open.to_string());
    let slo = match delta.diff.gauge("obs_slos_breached") {
        None => dash(),
        Some(0) => "ok".to_owned(),
        Some(breached) => format!("BREACH:{breached}"),
    };
    let (p50, p99) = (quantile(0.50), quantile(0.99));
    top_line([label, state, &req_s, &hit, &p50, &p99, &conns, &slo])
}

/// One full `top` frame: the column header, one row per node, and (for more
/// than one node) a fleet row merging every answering node's delta — sound
/// because merging per-node deltas equals the delta of merged snapshots.
fn render_top_frame(rows: &[(String, Option<SnapshotDelta>)], window_us: u64) -> String {
    let mut out = format!(
        "srra top: {} node(s), {:.1}s window\n{}\n",
        rows.len(),
        window_us as f64 / 1e6,
        top_line(["NODE", "STATE", "REQ/S", "HIT%", "P50_US", "P99_US", "CONNS", "SLO"])
    );
    for (addr, delta) in rows {
        let state = if delta.is_some() { "up" } else { "DOWN" };
        out.push_str(&render_top_row(addr, state, delta.as_ref()));
        out.push('\n');
    }
    if rows.len() > 1 {
        let up: Vec<&SnapshotDelta> = rows.iter().filter_map(|(_, d)| d.as_ref()).collect();
        let fleet = up
            .iter()
            .map(|delta| (*delta).clone())
            .reduce(|mut merged, delta| {
                merged.merge(&delta);
                merged
            });
        let label = format!("fleet ({}/{} up)", up.len(), rows.len());
        out.push_str(&render_top_row(&label, "-", fleet.as_ref()));
        out.push('\n');
    }
    out.trim_end().to_owned()
}

/// The shared refresh loop of `srra query top` / `srra cluster top`: `poll`
/// answers every node's delta over the trailing window (in µs) it is given.
/// With `once` the first frame is returned for scripts and CI; otherwise
/// each tick repaints the terminal (ANSI clear + home) until interrupted.
pub(crate) fn run_top(
    (interval_ms, once): (u64, bool),
    mut poll: impl FnMut(u64) -> Vec<(String, Option<SnapshotDelta>)>,
) -> Result<String, CliError> {
    // The delta window trails two refresh intervals, so every frame overlaps
    // the previous one and a single missed sample cannot blank a column.
    let window_us = interval_ms.saturating_mul(2_000);
    if once {
        return Ok(render_top_frame(&poll(window_us), window_us));
    }
    loop {
        println!(
            "\x1b[2J\x1b[H{}",
            render_top_frame(&poll(window_us), window_us)
        );
        let _ = std::io::Write::flush(&mut std::io::stdout());
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}
