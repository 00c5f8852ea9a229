//! Wall-time attribution of a traced window to layers.
//!
//! The program already emits spans at its layer boundaries (`unit.*` in
//! the frontend, `ted.compute`, `matrix.*`, `pool.execute`,
//! `serve.request`, `client.call`, `port.*`); the benchmark adds its own
//! spans around each public call it makes.  A span's *self* intervals are
//! its duration minus the intervals its children on the same thread
//! cover.
//!
//! Work runs on several threads at once, so self times summed over
//! threads can exceed the wall clock.  The window is therefore swept
//! instant by instant.  At each instant every thread with an open span
//! contributes its innermost span; among those, only the spans of the
//! lowest *tier* count, and they share the instant equally.  Tiers order
//! spans from the work itself (tier 0: the compiler stages, the DP
//! kernel, interpreter runs) up through the fan-out and request layers
//! that wait on it (pool job, server request, client call, benchmark
//! glue).  A thread blocked in a fan-out span while workers compute is
//! thereby counted as waiting, not working.  Instants with no open span
//! anywhere are `unattributed`.  By construction the rows plus
//! `unattributed` equal the window's wall time; [`Attribution::sum_error`]
//! reports any residual from clipping and rounding.

use std::collections::BTreeMap;
use svtrace::SpanRecord;

/// Map a span name to its layer row and tier.
pub fn layer_of(name: &str) -> (&'static str, u8) {
    match name {
        "unit.preprocess" => ("svlang.preprocess", 0),
        "unit.lex" => ("svlang.lex", 0),
        "unit.parse" => ("svlang.parse", 0),
        "unit.normalise" => ("svlang.normalise", 0),
        "unit.inline" => ("svlang.inline", 0),
        "unit.lower" => ("svlang.lower", 0),
        "unit.compile" => ("svlang.compile_other", 0),
        "ted.compute" => ("svdist.ted", 0),
        "source.edit_distance" | "bench.lcs" => ("svdist.lcs", 0),
        "matrix.pair" => ("svmetrics.matrix", 0),
        "port.gate" | "port.baseline" => ("svexec.run", 0),
        "port.score" => ("svport.score", 0),
        "bench.cluster" => ("svcluster.cluster", 0),
        "bench.chart" => ("svperf.chart", 0),
        "bench.pack" => ("svtree.pack", 0),
        "bench.unpack" => ("svtree.unpack", 0),
        "bench.gen" => ("svport.gen", 0),
        "matrix.build" | "matrix.approx" | "bench.matrix" => ("svmetrics.matrix", 1),
        "pool.execute" => ("svserve.exec", 1),
        "pipeline.index_app" | "pipeline.index_compdb" | "bench.index" => ("silvervale.index", 1),
        "serve.request" => ("svserve.server_wire", 2),
        "client.call" => ("svserve.client_wire", 3),
        _ => ("bench.glue", 4),
    }
}

/// Per-layer wall-share of one traced window.
pub struct Attribution {
    /// Window length, ms.
    pub wall_ms: f64,
    /// Layer row → wall-share ms.
    pub rows: BTreeMap<&'static str, f64>,
    /// Instants with no open span, ms.
    pub unattributed_ms: f64,
    /// Span counts by span name (inside the window).
    pub counts: BTreeMap<&'static str, u64>,
    /// Span durations (ms) by span name, for spans wholly inside the window.
    pub durations: BTreeMap<&'static str, Vec<f64>>,
}

/// Tolerance for |rows + unattributed − wall| / wall.
pub const SUM_TOLERANCE: f64 = 0.005;

impl Attribution {
    /// Relative gap between the rows (plus `unattributed`) and the wall.
    pub fn sum_error(&self) -> f64 {
        let sum: f64 = self.rows.values().sum::<f64>() + self.unattributed_ms;
        (sum - self.wall_ms).abs() / self.wall_ms.max(1e-9)
    }

    /// Remove `ms` of untraced time (tracing switched off inside the
    /// window, so no span covers it) from the window.
    pub fn exclude_ms(&mut self, ms: f64) {
        self.wall_ms -= ms;
        self.unattributed_ms -= ms;
    }

    pub fn row(&self, name: &str) -> f64 {
        self.rows.get(name).copied().unwrap_or(0.0)
    }

    /// The table printed with a traced run.
    pub fn render(&self, title: &str, per: f64, per_label: &str) -> String {
        let mut out = format!(
            "{title}: wall {:.1} ms over {per} {per_label} (ms per {per_label}; sum error {:.3}%, tolerance {:.1}%)\n",
            self.wall_ms,
            self.sum_error() * 100.0,
            SUM_TOLERANCE * 100.0
        );
        let mut rows: Vec<(&str, f64)> = self.rows.iter().map(|(k, v)| (*k, *v)).collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows.push(("unattributed", self.unattributed_ms));
        for (name, ms) in rows {
            out.push_str(&format!(
                "  {name:<24} {:>12.3} ms/{per_label} {:>6.1}%\n",
                ms / per,
                100.0 * ms / self.wall_ms.max(1e-9)
            ));
        }
        out
    }
}

/// Attribute `[t0, t1]` (svtrace nanoseconds) to layers.
pub fn attribute(spans: &[SpanRecord], t0: u64, t1: u64) -> Attribution {
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    // Innermost-span segments per thread: (start, end, row, tier).
    let mut by_thread: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        if s.end_ns <= t0 || s.start_ns >= t1 {
            continue;
        }
        *counts.entry(s.name).or_default() += 1;
        if s.start_ns >= t0 && s.end_ns <= t1 {
            durations.entry(s.name).or_default().push(s.dur_ns() as f64 / 1e6);
        }
        by_thread.entry(s.tid).or_default().push(s);
    }
    let mut segs: Vec<(u64, u64, &'static str, u8)> = Vec::new();
    for list in by_thread.values_mut() {
        // Outer spans first when two start together.
        list.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
        let mut stack: Vec<&SpanRecord> = Vec::new();
        let mut cursor = 0u64;
        let emit = |segs: &mut Vec<_>, s: &SpanRecord, a: u64, b: u64| {
            let (a, b) = (a.max(t0), b.min(t1));
            if b > a {
                let (row, tier) = layer_of(s.name);
                segs.push((a, b, row, tier));
            }
        };
        for s in list.iter() {
            while let Some(top) = stack.last() {
                if top.end_ns > s.start_ns {
                    break;
                }
                emit(&mut segs, top, cursor, top.end_ns);
                cursor = cursor.max(top.end_ns);
                stack.pop();
            }
            if let Some(top) = stack.last() {
                emit(&mut segs, top, cursor, s.start_ns);
            }
            cursor = cursor.max(s.start_ns);
            stack.push(s);
        }
        while let Some(top) = stack.pop() {
            emit(&mut segs, top, cursor, top.end_ns);
            cursor = cursor.max(top.end_ns);
        }
    }

    // Sweep: boundary events, then split each elementary interval among
    // the lowest-tier active segments.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(segs.len() * 2);
    for (i, s) in segs.iter().enumerate() {
        events.push((s.0, true, i));
        events.push((s.1, false, i));
    }
    // Ends before starts at equal timestamps.
    events.sort_by_key(|e| (e.0, e.1));
    let mut active: BTreeMap<usize, ()> = BTreeMap::new();
    let mut rows: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut unattributed = 0.0;
    let mut prev = t0;
    let flush = |from: u64, to: u64, active: &BTreeMap<usize, ()>, rows: &mut BTreeMap<_, _>| {
        if to <= from {
            return 0.0;
        }
        let dt = (to - from) as f64 / 1e6;
        let Some(min_tier) = active.keys().map(|&i| segs[i].3).min() else { return dt };
        let winners: Vec<usize> =
            active.keys().copied().filter(|&i| segs[i].3 == min_tier).collect();
        let share = dt / winners.len() as f64;
        for i in winners {
            *rows.entry(segs[i].2).or_insert(0.0) += share;
        }
        0.0
    };
    for (t, start, i) in events {
        unattributed += flush(prev, t, &active, &mut rows);
        prev = prev.max(t);
        if start {
            active.insert(i, ());
        } else {
            active.remove(&i);
        }
    }
    unattributed += flush(prev, t1, &active, &mut rows);
    Attribution {
        wall_ms: (t1 - t0) as f64 / 1e6,
        rows,
        unattributed_ms: unattributed,
        counts,
        durations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tid: u64, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            name,
            detail: String::new(),
            tid,
            depth: 0,
            start_ns: start,
            end_ns: end,
            trace_id: 0,
            span_id: 0,
            parent_span_id: 0,
        }
    }

    #[test]
    fn rows_sum_to_wall_and_waiting_parents_lose() {
        let ms = 1_000_000;
        let spans = vec![
            // Main thread blocked in a fan-out while two workers run TED.
            span("matrix.build", 0, 0, 10 * ms),
            span("ted.compute", 1, ms, 5 * ms),
            span("ted.compute", 2, 2 * ms, 6 * ms),
            // Nested frontend stages on one thread.
            span("unit.compile", 3, 12 * ms, 18 * ms),
            span("unit.parse", 3, 13 * ms, 15 * ms),
        ];
        let a = attribute(&spans, 0, 20 * ms);
        assert!(a.sum_error() < 1e-9);
        assert!((a.row("svdist.ted") - 5.0).abs() < 1e-9);
        assert!((a.row("svmetrics.matrix") - 5.0).abs() < 1e-9);
        assert!((a.row("svlang.parse") - 2.0).abs() < 1e-9);
        assert!((a.row("svlang.compile_other") - 4.0).abs() < 1e-9);
        assert!((a.unattributed_ms - 4.0).abs() < 1e-9);
    }
}
