//! The workload-independent part of a run: repeated set-up, the timed
//! window, end-to-end statistics, and the traced run with its per-layer
//! attribution.

use crate::attrib::{self, Attribution};
use crate::host;
use crate::stats::{median, min_samples_for, percentile, quantile, tail_percentile};
use std::collections::BTreeMap;
use std::time::Instant;

/// Command-line configuration of one run.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One timed operation.
pub struct Op {
    /// Start, seconds since the block began.
    pub start_s: f64,
    /// Latency, ms.
    pub ms: f64,
}

/// What a block of operations produced.
#[derive(Default)]
pub struct Block {
    pub ops: Vec<Op>,
    /// Units of work completed (a figure pass for `reproduce`, one op
    /// otherwise); per-layer metrics are reported per unit.
    pub units: usize,
    pub wall_s: f64,
    /// Untimed, untraced time inside the block (server restarts), and
    /// the CPU time spent in it.
    pub paused_s: f64,
    pub paused_cpu_s: f64,
    /// Durations (s) of full set-ups the block performed itself.
    pub setups: Vec<f64>,
}

/// How much work a block does: until a deadline (and at least
/// `min_ops` operations and one unit), or exactly `units` units.
#[derive(Clone, Copy)]
pub enum Amount {
    Until { deadline: Instant, min_ops: usize },
    Units(usize),
}

impl Amount {
    /// True once a block that has done `ops` operations and `units`
    /// units, on one connection of `conns`, should stop.
    pub fn done(&self, ops: usize, units: usize, conns: usize) -> bool {
        match *self {
            Amount::Until { deadline, min_ops } => {
                Instant::now() >= deadline && ops * conns >= min_ops && units > 0
            }
            Amount::Units(n) => units * conns >= n,
        }
    }
}

/// Accumulated result of a run: op accounting, failures, metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub notes: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Count one failed op (an error reply, a failed check or a wrong
    /// output) with its reason.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        let why = why.into();
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Count one checked op; a failing check also counts as a failure.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }
}

/// Counts and probes a workload adds to the traced run's per-layer
/// metrics, keyed by metric name (totals over the traced block; the
/// harness divides by units where the metric is per unit).
pub type Extras = BTreeMap<&'static str, f64>;

/// One benchmark workload.
pub trait Workload {
    /// Tail percentile reported as `lat_tail_ms`; the timed window runs
    /// until at least ten samples lie beyond it.  `REPEATED` workloads
    /// ignore it: their tail is the highest percentile of their latency
    /// samples (see `untraced_run`) that has ten of them beyond it.
    const TAIL_P: f64 = 90.0;
    /// Full set-ups in an untraced run.
    const SETUPS: usize = 11;
    /// True when an untraced run makes one set-up before the window and
    /// the other `SETUPS - 1` between equal slices of it, so that set-ups
    /// and ops are both sampled over the whole run, not over its first or
    /// second half.  A workload whose blocks already set up afresh every
    /// round (`evaluate`) leaves it off.
    const SPREAD_SETUPS: bool = false;
    /// True when every round repeats the same ops in the same order, so
    /// op `k` of each round is one op measured once per round.
    const REPEATED: bool = false;
    /// What one unit of work is called in reports.
    const UNIT: &'static str;

    /// Operations per round, the unit of `wall_s` and of the round-level
    /// statistics.
    fn round(&self) -> usize;

    /// Build fresh state (indexes, servers, warm caches), replacing any
    /// previous state.  Timed as `setup_s`.
    fn setup(&mut self, cfg: &Config) -> Result<(), String>;
    /// Durations (s) of the steps of the last set-up, when every set-up
    /// runs the same steps in the same order; `setup_s` is then the sum of
    /// each step's best time, as `REPEATED` rounds are.
    fn setup_steps(&self) -> &[f64] {
        &[]
    }
    /// Run operations; failures go to `rep`.
    fn block(&mut self, amount: Amount, rep: &mut Report) -> Block;
    /// Output checks, outside every timed window.
    fn check(&mut self, rep: &mut Report);
    /// Per-layer counts and probes for the traced block just run.
    fn extras(&mut self, attr: &Attribution, block: &Block, extras: &mut Extras);
    /// Release servers and other resources.
    fn teardown(&mut self) {}
}

/// Quantile of round-level times reported as the run's value (the best
/// quartile; rates use `1 - BEST`).
const BEST: f64 = 0.25;

pub fn run<W: Workload>(w: &mut W, cfg: &Config) -> Report {
    let mut rep = Report::default();
    let runs = match (cfg.trace, W::SPREAD_SETUPS) {
        (true, _) => 2,
        (false, true) => 1,
        (false, false) => W::SETUPS,
    };
    let mut setups = Vec::new();
    let mut steps = Vec::new();
    let mut setup_attr = None;
    for k in 0..runs {
        let traced = cfg.trace && k == runs - 1;
        let (t0, c0) = (Instant::now(), begin_trace(traced));
        let r = w.setup(cfg);
        setups.push(t0.elapsed().as_secs_f64());
        steps.push(w.setup_steps().to_vec());
        if traced {
            setup_attr = Some(end_trace(c0));
        }
        if let Err(e) = r {
            rep.attempted += 1;
            rep.fail(format!("set-up: {e}"));
            w.teardown();
            return rep;
        }
    }
    if cfg.trace {
        traced_run(w, cfg, &mut rep, &setups, setup_attr.expect("traced set-up"));
    } else {
        untraced_run(w, cfg, &mut rep, setups, steps);
    }
    w.teardown();
    rep
}

/// The untraced window: one block, or for `SPREAD_SETUPS` workloads
/// `SETUPS` blocks of equal timed length with a full set-up between each
/// two, appended to `setups` and `steps`.  Returns the blocks merged into
/// one, with op starts on a single timeline of timed seconds.
fn window<W: Workload>(
    w: &mut W,
    cfg: &Config,
    rep: &mut Report,
    setups: &mut Vec<f64>,
    steps: &mut Vec<Vec<f64>>,
) -> Result<Block, String> {
    let min_ops = if W::REPEATED { 0 } else { min_samples_for(W::TAIL_P) };
    let slices = if W::SPREAD_SETUPS { W::SETUPS.max(1) } else { 1 };
    let mut all = Block::default();
    for k in 0..slices {
        if k > 0 {
            let t = Instant::now();
            w.setup(cfg)?;
            setups.push(t.elapsed().as_secs_f64());
            steps.push(w.setup_steps().to_vec());
        }
        // The minimum op count applies to the whole window: the last
        // slice runs on until it holds.
        let last = k + 1 == slices;
        let deadline =
            Instant::now() + std::time::Duration::from_secs_f64(cfg.seconds / slices as f64);
        let min_ops = if last { min_ops.saturating_sub(all.ops.len()) } else { 0 };
        let amount = Amount::Until { deadline, min_ops };
        let b = w.block(amount, rep);
        let offset = all.wall_s;
        all.ops.extend(b.ops.into_iter().map(|o| Op { start_s: o.start_s + offset, ms: o.ms }));
        all.units += b.units;
        all.wall_s += b.wall_s;
        all.paused_s += b.paused_s;
        all.paused_cpu_s += b.paused_cpu_s;
        all.setups.extend(b.setups);
    }
    Ok(all)
}

fn untraced_run<W: Workload>(
    w: &mut W,
    cfg: &Config,
    rep: &mut Report,
    mut setups: Vec<f64>,
    mut steps: Vec<Vec<f64>>,
) {
    let b = match window(w, cfg, rep, &mut setups, &mut steps) {
        Ok(b) => b,
        Err(e) => {
            rep.attempted += 1;
            rep.fail(format!("set-up: {e}"));
            return;
        }
    };
    w.check(rep);
    let setups: Vec<f64> = setups.iter().chain(&b.setups).copied().collect();
    let lat: Vec<f64> = b.ops.iter().map(|o| o.ms).collect();
    if lat.is_empty() {
        rep.fail("no operation completed");
        return;
    }
    // Interference from other tenants of the host (CPU steal, memory
    // bandwidth) comes in bursts of seconds and only ever slows work
    // down.  Statistics are therefore taken per round (`round()` consecutive
    // ops, in completion order) and the best quartile over rounds is
    // reported: the lower quartile of times, the upper quartile of rates.
    // Latency percentiles use rounds only when one round alone holds
    // enough samples for the tail percentile; otherwise they use every op.
    let round = w.round();
    let rounds = rounds(&b.ops, round);
    let (wall, rate, p50, tail) = if W::REPEATED {
        // The same op repeats once per round, so each op has a best time
        // over the rounds (each slice of the window runs at least one); a
        // round's time is the sum of those.  The latency percentiles are taken over each
        // op's best time within each half of the rounds: two samples per
        // op, so that the tail lies among the long ops and still has ten
        // samples beyond it.
        let best = best_per_op(&rounds, round);
        let wall = best.iter().sum::<f64>() / 1e3;
        let halves: Vec<f64> = svpar::split_ranges(rounds.len(), 2)
            .into_iter()
            .flat_map(|(lo, hi)| best_per_op(&rounds[lo..hi], round))
            .collect();
        let p = tail_percentile(halves.len());
        let (tail, beyond) = percentile(&halves, p);
        rep.note(format!(
            "wall_s: the sum of each op's best time over {} rounds; latency percentiles over {} samples, each op's best in each half of the rounds; lat_tail_ms is p{p} with {beyond} samples beyond it",
            rounds.len(),
            halves.len()
        ));
        rep.note(format!(
            "per-op best times (ms), in op order: {:?}",
            best.iter().map(|t| format!("{t:.3}")).collect::<Vec<_>>()
        ));
        (wall, round as f64 / wall, median(&halves), tail)
    } else {
        let wall = quantile(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>(), BEST);
        let rate = quantile(
            &rounds.iter().map(|r| r.lat.len() as f64 / r.wall_s).collect::<Vec<_>>(),
            1.0 - BEST,
        );
        let (p50, tail, beyond, how) = if round >= min_samples_for(W::TAIL_P) {
            let tails: Vec<(f64, usize)> =
                rounds.iter().map(|r| percentile(&r.lat, W::TAIL_P)).collect();
            let p50s: Vec<f64> = rounds.iter().map(|r| median(&r.lat)).collect();
            let t: Vec<f64> = tails.iter().map(|t| t.0).collect();
            let beyond = tails.iter().map(|t| t.1).min().unwrap_or(0);
            (quantile(&p50s, BEST), quantile(&t, BEST), beyond, "per round")
        } else {
            let (t, beyond) = percentile(&lat, W::TAIL_P);
            (median(&lat), t, beyond, "over all ops")
        };
        rep.note(format!(
            "latency percentiles {how}; lat_tail_ms is p{} with at least {beyond} samples beyond it",
            W::TAIL_P
        ));
        (wall, rate, p50, tail)
    };
    rep.note(format!(
        "samples: {} ops in {:.2} s; {} rounds of {} ops, walls (s) {:?}; {} set-ups {:?}",
        lat.len(),
        b.wall_s,
        rounds.len(),
        round,
        rounds.iter().take(12).map(|r| format!("{:.3}", r.wall_s)).collect::<Vec<_>>(),
        setups.len(),
        setups.iter().take(12).map(|s| format!("{s:.3}")).collect::<Vec<_>>()
    ));
    // Set-ups are short and few, so the same burst that slows one round
    // can slow one set-up: the best quartile applies to them too, or the
    // sum of per-step bests where the set-up reports its steps.
    let per_step = steps.first().map_or(0, Vec::len);
    let setup_s = if per_step > 0 && steps.iter().all(|s| s.len() == per_step) {
        rep.note(format!(
            "setup_s: the sum of each of {per_step} steps' best time over {} set-ups",
            steps.len()
        ));
        (0..per_step).map(|j| steps.iter().map(|s| s[j]).fold(f64::INFINITY, f64::min)).sum()
    } else {
        rep.note(format!("setup_s: the lower quartile of {} set-ups", setups.len()));
        quantile(&setups, BEST)
    };
    rep.metric("setup_s", setup_s, "s");
    rep.metric("wall_s", wall, "s");
    rep.metric("ops_per_s", rate, "1/s");
    rep.metric("lat_p50_ms", p50, "ms");
    rep.metric("lat_tail_ms", tail, "ms");
    rep.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
}

/// Best latency of each of the `round` ops over `rounds`.
fn best_per_op(rounds: &[Round], round: usize) -> Vec<f64> {
    (0..round)
        .map(|k| rounds.iter().filter_map(|r| r.lat.get(k).copied()).fold(f64::INFINITY, f64::min))
        .collect()
}

/// One round: its wall time and the latencies of its ops.
struct Round {
    wall_s: f64,
    lat: Vec<f64>,
}

/// Split ops, in completion order across connections, into rounds of
/// `round` consecutive ops (a trailing partial round is dropped, unless
/// it is the only one).
fn rounds(ops: &[Op], round: usize) -> Vec<Round> {
    let mut sorted: Vec<&Op> = ops.iter().collect();
    sorted.sort_by(|a, b| (a.start_s + a.ms / 1e3).total_cmp(&(b.start_s + b.ms / 1e3)));
    let make = |chunk: &[&Op]| {
        let start = chunk.iter().map(|o| o.start_s).fold(f64::INFINITY, f64::min);
        let end = chunk.iter().map(|o| o.start_s + o.ms / 1e3).fold(0.0, f64::max);
        Round { wall_s: end - start, lat: chunk.iter().map(|o| o.ms).collect() }
    };
    let out: Vec<Round> = sorted.chunks_exact(round.max(1)).map(make).collect();
    if out.is_empty() {
        vec![make(&sorted)]
    } else {
        out
    }
}

struct TraceStart {
    t_ns: u64,
    cpu_s: f64,
    wall: Instant,
}

fn begin_trace(on: bool) -> TraceStart {
    if on {
        svtrace::reset_spans();
        svtrace::set_enabled(true);
    }
    TraceStart { t_ns: svtrace::now_ns(), cpu_s: host::cpu_seconds(), wall: Instant::now() }
}

fn end_trace(start: TraceStart) -> Attribution {
    let t1 = svtrace::now_ns();
    svtrace::set_enabled(false);
    let spans = svtrace::take_spans();
    attrib::attribute(&spans, start.t_ns, t1)
}

fn traced_run<W: Workload>(
    w: &mut W,
    cfg: &Config,
    rep: &mut Report,
    setups: &[f64],
    setup_attr: Attribution,
) {
    // Untraced reference block, then a traced block of the same size.
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(cfg.seconds / 2.0);
    let plain = w.block(Amount::Until { deadline, min_ops: 1 }, rep);
    let units = plain.units.max(1);
    let start = begin_trace(true);
    let cpu0 = start.cpu_s;
    let wall0 = start.wall;
    let traced = w.block(Amount::Units(units), rep);
    let cpu_s = host::cpu_seconds() - cpu0 - traced.paused_cpu_s;
    let wall_s = wall0.elapsed().as_secs_f64() - traced.paused_s;
    let mut attr = end_trace(start);
    attr.exclude_ms(traced.paused_s * 1e3);
    w.check(rep);

    let per = traced.units.max(1) as f64;
    let overhead_pct =
        100.0 * (traced.wall_s / per - plain.wall_s / units as f64) / (plain.wall_s / units as f64);
    rep.note(format!(
        "traced set-up: untraced {:.3} s, traced {:.3} s",
        setups[0],
        setups.last().copied().unwrap_or(0.0)
    ));
    rep.note(setup_attr.render("set-up attribution", 1.0, "set-up"));
    rep.note(attr.render("timed-window attribution", per, W::UNIT));
    if setup_attr.sum_error() > attrib::SUM_TOLERANCE || attr.sum_error() > attrib::SUM_TOLERANCE {
        rep.attempted += 1;
        rep.fail(format!(
            "attribution rows do not sum to the traced wall: {:.3}% / {:.3}%",
            setup_attr.sum_error() * 100.0,
            attr.sum_error() * 100.0
        ));
    }

    let mut extras = Extras::new();
    w.extras(&attr, &traced, &mut extras);
    let svlang_ms: f64 = [
        "svlang.preprocess",
        "svlang.lex",
        "svlang.parse",
        "svlang.normalise",
        "svlang.inline",
        "svlang.lower",
        "svlang.compile_other",
    ]
    .iter()
    .map(|r| attr.row(r))
    .sum();
    let ted_ms = attr.row("svdist.ted");
    let mut m = Extras::new();
    m.insert("svlang.compile_ms", svlang_ms / per);
    for (metric, row) in [
        ("svlang.preprocess_ms", "svlang.preprocess"),
        ("svlang.lex_ms", "svlang.lex"),
        ("svlang.parse_ms", "svlang.parse"),
        ("svlang.normalise_ms", "svlang.normalise"),
        ("svlang.inline_ms", "svlang.inline"),
        ("svtree.pack_ms", "svtree.pack"),
        ("svtree.unpack_ms", "svtree.unpack"),
        ("svdist.ted_ms", "svdist.ted"),
        ("svdist.lcs_ms", "svdist.lcs"),
        ("svmetrics.matrix_ms", "svmetrics.matrix"),
        ("svcluster.cluster_ms", "svcluster.cluster"),
        ("svperf.chart_ms", "svperf.chart"),
        ("svexec.run_ms", "svexec.run"),
        ("svserve.exec_ms", "svserve.exec"),
        ("svserve.server_wire_ms", "svserve.server_wire"),
        ("svserve.client_wire_ms", "svserve.client_wire"),
        ("silvervale.index_ms", "silvervale.index"),
        ("bench.glue_ms", "bench.glue"),
    ] {
        m.insert(metric, attr.row(row) / per);
    }
    m.insert("unattributed_ms", attr.unattributed_ms / per);
    m.insert("traced_wall_ms", attr.wall_ms / per);
    m.insert("svtrace.overhead_pct", overhead_pct);
    // Wire time: what the client waited beyond the server's handling of
    // the request (both medians, from the program's own spans).
    if let (Some(client), Some(server)) =
        (attr.durations.get("client.call"), attr.durations.get("serve.request"))
    {
        m.insert("svserve.wire_us_p50", (median(client) - median(server)) * 1e3);
    }
    m.insert("svpar.core_busy_ratio", cpu_s / (wall_s * host::nproc() as f64));
    let nodes = extras.remove("svlang.nodes").unwrap_or(0.0);
    m.insert("svlang.nodes_per_s", if svlang_ms > 0.0 { nodes / (svlang_ms / 1e3) } else { 0.0 });
    let cells = extras.remove("svdist.dp_cells").unwrap_or(0.0);
    m.insert("svdist.dp_cells", cells / per);
    m.insert("svdist.cells_per_s", if ted_ms > 0.0 { cells / (ted_ms / 1e3) } else { 0.0 });
    for (k, v) in extras {
        m.insert(k, v);
    }
    for &(name, unit) in crate::PER_LAYER {
        match m.remove(name) {
            Some(v) => rep.metric(name, v, unit),
            None => rep.metric(name, 0.0, unit),
        }
    }
    for (name, _) in m {
        rep.note(format!("internal: per-layer value {name} is not declared"));
    }
}
