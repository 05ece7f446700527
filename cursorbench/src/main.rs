//! End-to-end ranked-cursor benchmark.
//!
//! ```text
//! cursorbench --workload <topk_hot|topk_unique|deep_scroll> --seed <n>
//!             --seconds <s> --trace <0|1>
//! ```
//!
//! For the named workload this generates seeded data, starts the reactor
//! server in-process and drives two closed-loop clients against it (client
//! 0 speaks JSON lines, client 1 binary frames), checks every answer page
//! against the `re_baseline` oracle, and prints the metrics. The last line
//! of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! * `--trace 0` reports the end-to-end metrics, measured with no tracing.
//! * `--trace 1` reports the per-layer metrics: the closed loop again (half
//!   the window untraced, half with client spans, which gives the tracing
//!   overhead), then an in-process pass that calls each layer's public
//!   functions with spans around them, and a four-size scale sweep. The
//!   spans are written once, at the end, as a Chrome trace to
//!   `cursorbench/out/`.
//!
//! The command refuses to run with `RE_FAULT` set and removes every other
//! `RE_*` variable from its environment before anything reads it; the
//! server's configuration is set field by field (see
//! [`drive::server_config`]). It exits non-zero when any operation failed
//! or any page was wrong.

mod check;
mod drive;
mod spans;
mod stats;
mod traced;
mod workload;

use drive::{ClientRun, Round, Samples, Served, Window};
use stats::{cpu_steal_ticks, median, peak_rss_mb, quantile};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use workload::{Shape, Workload};

/// End-to-end metrics (`--trace 0`), in output order, with units.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("open_p50_ms", "ms"),
    ("open_p99_ms", "ms"),
    ("first_page_p50_ms", "ms"),
    ("first_page_p99_ms", "ms"),
    ("fetch_p50_us", "us"),
    ("fetch_p99_us", "us"),
    ("sessions_per_s", "1/s"),
    ("answers_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), in output order, with units.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("error_rate", "ratio"),
    ("sql.normalize_us", "us"),
    ("sql.parse_us", "us"),
    ("sql.plan_us", "us"),
    ("sql.instantiate_us", "us"),
    ("plan_cache.hit_ratio", "ratio"),
    ("server.preprocess_per_open", "ratio"),
    ("server.open_us", "us"),
    ("server.fetch_us", "us"),
    ("server.close_us", "us"),
    ("session.parked_bytes_peak", "bytes"),
    ("server.shed_ratio", "ratio"),
    ("codec.json.encode_ns_per_row", "ns"),
    ("codec.json.decode_ns_per_row", "ns"),
    ("codec.binary.encode_ns_per_row", "ns"),
    ("codec.binary.decode_ns_per_row", "ns"),
    ("codec.json.bytes_per_row", "bytes"),
    ("codec.binary.bytes_per_row", "bytes"),
    ("transport.fetch_overhead_us", "us"),
    ("transport.wakeups_per_request", "count"),
    ("transport.epoll_waits_per_request", "count"),
    ("query.ghd_select_us", "us"),
    ("join.reduce_ms", "ms"),
    ("join.reduce_kept_ratio", "ratio"),
    ("join.bags_ms", "ms"),
    ("join.bag_rows", "count"),
    ("core.open_ms", "ms"),
    ("core.open_self_ms", "ms"),
    ("core.first_answer_us", "us"),
    ("core.delay_p50_ns", "ns"),
    ("core.delay_p99_ns", "ns"),
    ("core.delay_max_ns", "ns"),
    ("core.frontier_peak_bytes", "bytes"),
    ("core.open_slope", "ratio"),
    ("core.delay_p99_slope", "ratio"),
    ("exec.pool_busy_ratio", "ratio"),
    ("exec.tasks_per_open", "count"),
    ("exec.steal_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.sessions_per_s_untraced", "1/s"),
    ("trace.sessions_per_s_traced", "1/s"),
    ("self.bench_us", "us"),
    ("self.client_us", "us"),
    ("self.sql_us", "us"),
    ("self.query_us", "us"),
    ("self.join_us", "us"),
    ("self.core_us", "us"),
    ("self.server_us", "us"),
    ("self.codec_us", "us"),
    ("scale.open_ms_at_max", "ms"),
    ("scale.delay_p99_ns_at_max", "ns"),
];

/// A run that has not finished after this long exits without a result
/// (a run must end within 180 s).
const WATCHDOG: Duration = Duration::from_secs(170);
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;
/// `topk_unique` script rounds the traced run keeps for its layer pass.
const LAYER_ROUNDS: usize = 3;
/// The self-test divides database sizes by this.
#[cfg(test)]
const TINY_DIVISOR: usize = 20;
/// A p99 is quoted as such only from at least this many samples.
const P99_MIN_SAMPLES: usize = 1000;

/// Parsed command line.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Database sizes are divided by this: 1 from the command line, more
    /// in the self-test.
    pub divisor: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        divisor: 1,
    })
}

/// One run's result.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in the order of [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    fn json(&self, units: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = units.iter().find(|(n, _)| n == name).map_or("", |(_, u)| u);
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Reject `RE_FAULT` and clear every other `RE_*` knob, so the ambient
/// environment cannot change the measured program. Runs before any thread
/// exists and before any library code reads the environment.
fn sanitise_environment() -> Result<Vec<String>, String> {
    if std::env::var_os("RE_FAULT").is_some() {
        return Err("RE_FAULT is set: refusing to benchmark with fault injection armed".into());
    }
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("RE_"))
        .collect();
    for k in &knobs {
        std::env::remove_var(k);
    }
    Ok(knobs)
}

fn main() {
    let ignored = match sanitise_environment() {
        Ok(ignored) => ignored,
        Err(e) => {
            eprintln!("cursorbench: {e}");
            std::process::exit(2);
        }
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cursorbench: {e}");
            eprintln!(
                "usage: cursorbench --workload <topk_hot|topk_unique|deep_scroll> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if !ignored.is_empty() {
        println!("environment: ignored {}", ignored.join(", "));
    }
    // A hung server or client must not hold the run past its time limit.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("cursorbench: no result after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    let report = if args.trace {
        traced_run(&args)
    } else {
        untraced_run(&args)
    };
    for line in &report.notes {
        println!("{line}");
    }
    let units: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", report.json(units));
    if !report.correct || report.failed > 0 {
        std::process::exit(1);
    }
}

fn provenance(args: &Args, served: &Served) -> Vec<String> {
    let sizes = served.data.sizes;
    let w = args.workload;
    vec![
        format!(
            "workload {} seed {} window {}s clients {} (client 0 json, client 1 binary), \
             closed loop, no think time, available_parallelism {}",
            w.name(),
            args.seed,
            args.seconds,
            drive::CLIENTS,
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ),
        format!(
            "data: dblp.AuthorPapers {} rows, cyc.AuthorPapers {} rows, ldbc scale {} \
             ({} rows in all); mix {}; page k={}, answer cap {}",
            sizes.memberships,
            sizes.cycle_memberships,
            sizes.ldbc_scale,
            served.data.total_rows(),
            w.shapes()
                .iter()
                .map(|s| s.label())
                .collect::<Vec<_>>()
                .join(","),
            w.page_k(),
            w.answer_cap()
        ),
        format!("server: {:?}", drive::server_config()),
    ]
}

/// Set up `times` times (all but the last torn down again); returns the
/// kept set-up and the set-up times in seconds.
fn set_up_repeatedly(args: &Args, times: usize) -> (Served, Vec<f64>) {
    let sizes = args.workload.sizes().shrunk(args.divisor);
    let mut secs = Vec::new();
    let mut kept = None;
    for i in 0..times {
        let t = Instant::now();
        let served = drive::set_up(args.workload, sizes, args.seed);
        secs.push(t.elapsed().as_secs_f64());
        if i + 1 < times {
            served.handle.shutdown();
        } else {
            kept = Some(served);
        }
    }
    (kept.expect("at least one set-up"), secs)
}

/// Every sample of one latency family, pooled over clients and shapes.
fn pooled(runs: &[ClientRun], pick: fn(&ClientRun) -> &Samples) -> Vec<(f64, f64)> {
    runs.iter()
        .flat_map(|r| pick(r).values().flatten().copied())
        .collect()
}

/// Time blocks a tail quantile is taken over.
const TAIL_BLOCKS: usize = 10;

/// The tail quantile `q` of one latency family, robust to bursts of
/// outside load: the window is cut into [`TAIL_BLOCKS`] equal time blocks,
/// the quantile is taken over each block's samples (both clients pooled),
/// and the median over the blocks is reported. A burst that slows one or
/// two blocks moves the pooled p99 a lot and this figure hardly at all.
fn blocked_quantile(runs: &[ClientRun], pick: fn(&ClientRun) -> &Samples, q: f64) -> f64 {
    let samples = pooled(runs, pick);
    let end = samples.iter().map(|s| s.0).fold(0.0, f64::max);
    let mut blocks = vec![Vec::new(); TAIL_BLOCKS];
    for (t, v) in samples {
        let b = ((t / end.max(1e-9)) * TAIL_BLOCKS as f64) as usize;
        blocks[b.min(TAIL_BLOCKS - 1)].push(v);
    }
    let mut per_block: Vec<f64> = blocks
        .iter_mut()
        .filter(|b| !b.is_empty())
        .map(|b| quantile(b, q))
        .collect();
    median(&mut per_block)
}

/// The typical latency of the mix: each statement shape's median (over
/// both clients), averaged over the shapes with equal weight, as every
/// round runs each shape once. Unlike the pooled median it does not jump
/// between the cost clusters of different statements from run to run.
fn mix_median(runs: &[ClientRun], pick: fn(&ClientRun) -> &Samples) -> f64 {
    let mut by_shape: BTreeMap<Shape, Vec<f64>> = BTreeMap::new();
    for r in runs {
        for (shape, v) in pick(r) {
            by_shape
                .entry(*shape)
                .or_default()
                .extend(v.iter().map(|s| s.1));
        }
    }
    let n = by_shape.len().max(1) as f64;
    by_shape.values_mut().map(|v| median(v)).sum::<f64>() / n
}

/// A rate seen by the clients: per client, the median over its rounds
/// (traced or untraced ones only, when `traced` is given) of the round's
/// count over its wall time; summed over the clients. The median keeps a
/// burst of outside load in a few rounds from moving the figure.
fn round_rate(runs: &[ClientRun], count: fn(&Round) -> u64, traced: Option<bool>) -> f64 {
    runs.iter()
        .map(|r| {
            let mut rates: Vec<f64> = r
                .rounds
                .iter()
                .filter(|round| traced.is_none_or(|t| round.traced == t))
                .map(|round| count(round) as f64 / round.secs.max(1e-9))
                .collect();
            median(&mut rates)
        })
        .sum()
}

/// Per-shape OPEN and FETCH latency summaries.
fn shape_notes(runs: &[ClientRun]) -> Vec<String> {
    let mut by_shape: BTreeMap<Shape, [Vec<f64>; 2]> = BTreeMap::new();
    for r in runs {
        for (shape, v) in &r.open_us {
            by_shape.entry(*shape).or_default()[0].extend(v.iter().map(|s| s.1));
        }
        for (shape, v) in &r.fetch_us {
            by_shape.entry(*shape).or_default()[1].extend(v.iter().map(|s| s.1));
        }
    }
    by_shape
        .into_iter()
        .map(|(shape, [mut open, mut fetch])| {
            format!(
                "{:12} open n={} p50 {:.3} ms p99 {:.3} ms; fetch n={} p50 {:.1} us p99 {:.1} us",
                shape.label(),
                open.len(),
                quantile(&mut open, 0.5) / 1e3,
                quantile(&mut open, 0.99) / 1e3,
                fetch.len(),
                quantile(&mut fetch, 0.5),
                quantile(&mut fetch, 0.99),
            )
        })
        .collect()
}

fn first_error(runs: &[ClientRun]) -> Option<String> {
    runs.iter().find_map(|r| r.first_error.clone())
}

fn algorithms(runs: &[ClientRun]) -> String {
    let set: BTreeSet<String> = runs
        .iter()
        .flat_map(|r| {
            r.streams
                .iter()
                .map(|(s, rec)| format!("{}={}", s.shape.label(), rec.algorithm))
        })
        .collect();
    set.into_iter().collect::<Vec<_>>().join(" ")
}

/// `--trace 0`: the end-to-end metrics.
pub fn untraced_run(args: &Args) -> Report {
    let (served, setup_secs) = set_up_repeatedly(args, SETUPS);
    let mut notes = provenance(args, &served);
    let window = Window {
        seconds: args.seconds,
        trace_odd_rounds: false,
        last_round: usize::MAX,
    };
    let steal_before = cpu_steal_ticks();
    let runs = drive::drive(&served, args.workload, args.seed, &window);
    let rss = peak_rss_mb();
    let steal_after = cpu_steal_ticks();
    let Served { data, handle, .. } = served;
    handle.shutdown();
    let verdict = drive::verify(&runs, &data, args.workload);

    let open = pooled(&runs, |r| &r.open_us);
    let first = pooled(&runs, |r| &r.first_page_us);
    let fetch = pooled(&runs, |r| &r.fetch_us);
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed = runs.iter().map(|r| r.failed).sum::<u64>() + verdict.wrong_pages;
    notes.push(format!(
        "samples: open {} first_page {} fetch {} sessions {} answers {} rounds {:?}; \
         a p99 from fewer than {P99_MIN_SAMPLES} samples is indicative only",
        open.len(),
        first.len(),
        fetch.len(),
        runs.iter().map(|r| r.sessions).sum::<u64>(),
        runs.iter().map(|r| r.answers).sum::<u64>(),
        runs.iter().map(|r| r.rounds.len()).collect::<Vec<_>>(),
    ));
    for (i, r) in runs.iter().enumerate() {
        let mut secs: Vec<f64> = r.rounds.iter().map(|x| x.secs).collect();
        let mid = median(&mut secs);
        notes.push(format!(
            "client {i}: {} rounds, round seconds min {:.3} median {mid:.3} max {:.3}",
            secs.len(),
            secs.first().copied().unwrap_or(0.0),
            secs.last().copied().unwrap_or(0.0),
        ));
    }
    notes.extend(shape_notes(&runs));
    notes.push(format!("set-up times (s): {setup_secs:?}"));
    // Time the hypervisor gave other guests: a run with high steal was
    // measured on a disturbed machine.
    let steal = steal_after.0.saturating_sub(steal_before.0) as f64;
    let total = steal_after.1.saturating_sub(steal_before.1).max(1) as f64;
    notes.push(format!(
        "machine: cpu steal {:.2}% during the window",
        100.0 * steal / total
    ));
    notes.push(format!("algorithms: {}", algorithms(&runs)));
    notes.extend(verdict_notes(&verdict, &runs, attempted, failed));
    let metrics = vec![
        ("setup_s", median(&mut setup_secs.clone())),
        ("open_p50_ms", mix_median(&runs, |r| &r.open_us) / 1e3),
        (
            "open_p99_ms",
            blocked_quantile(&runs, |r| &r.open_us, 0.99) / 1e3,
        ),
        (
            "first_page_p50_ms",
            mix_median(&runs, |r| &r.first_page_us) / 1e3,
        ),
        (
            "first_page_p99_ms",
            blocked_quantile(&runs, |r| &r.first_page_us, 0.99) / 1e3,
        ),
        ("fetch_p50_us", mix_median(&runs, |r| &r.fetch_us)),
        (
            "fetch_p99_us",
            blocked_quantile(&runs, |r| &r.fetch_us, 0.99),
        ),
        ("sessions_per_s", round_rate(&runs, |r| r.sessions, None)),
        ("answers_per_s", round_rate(&runs, |r| r.answers, None)),
        ("peak_rss_mb", rss),
    ];
    Report {
        correct: verdict.wrong_pages == 0,
        attempted,
        failed,
        metrics,
        notes,
    }
}

fn verdict_notes(
    verdict: &drive::Verdict,
    runs: &[ClientRun],
    attempted: u64,
    failed: u64,
) -> Vec<String> {
    let mut notes = vec![format!(
        "correctness: {} distinct statements checked against the oracle, {} wrong pages; \
         error_rate {} ({failed} of {attempted})",
        verdict.statements,
        verdict.wrong_pages,
        failed as f64 / attempted.max(1) as f64
    )];
    notes.extend(verdict.problems.iter().map(|p| format!("WRONG: {p}")));
    if let Some(e) = first_error(runs) {
        notes.push(format!("FAILED: first error: {e}"));
    }
    notes
}

/// Raises its flag when dropped.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// `--trace 1`: the per-layer metrics.
pub fn traced_run(args: &Args) -> Report {
    let (served, _) = set_up_repeatedly(args, 1);
    let mut notes = provenance(args, &served);
    let server = std::sync::Arc::clone(&served.server);
    let before = server.stats_report();

    // The closed loop, tracing every other round; a sampler watches
    // parked-session bytes. `topk_unique` keeps its last script rounds
    // fresh for the layer pass.
    let last_round = served.anchors.as_ref().map_or(usize::MAX, |a| {
        a.rounds(drive::CLIENTS).saturating_sub(LAYER_ROUNDS)
    });
    let stop = AtomicBool::new(false);
    let parked_peak = AtomicU64::new(0);
    let runs = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let parked = server.stats_report().session_bytes_parked;
                parked_peak.fetch_max(parked, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        // Stops the sampler even if the drive panics, so the scope ends.
        let _stop = StopOnDrop(&stop);
        let window = Window {
            seconds: args.seconds,
            trace_odd_rounds: true,
            last_round,
        };
        drive::drive(&served, args.workload, args.seed, &window)
    });
    let after = server.stats_report();
    let verdict = drive::verify(&runs, &served.data, args.workload);
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed = runs.iter().map(|r| r.failed).sum::<u64>() + verdict.wrong_pages;
    notes.extend(verdict_notes(&verdict, &runs, attempted, failed));

    // The in-process layer pass and the scale sweep.
    let pass_round = runs.iter().map(|r| r.rounds.len()).max().unwrap_or(0);
    let mut tracer = spans::Tracer::new(100, true);
    let layer = traced::layer_pass(&served, args.workload, args.seed, pass_round, &mut tracer);
    let sweep = traced::scale_sweep(args.seed, args.divisor, server.exec_context());
    let Served { handle, .. } = served;
    handle.shutdown();

    // Parent indices are per tracer: re-base each tracer's into the merged list.
    let mut all_spans: Vec<spans::Span> = Vec::new();
    let groups = runs.iter().map(|r| r.spans.clone());
    for group in groups.chain(std::iter::once(tracer.into_spans())) {
        let base = all_spans.len();
        all_spans.extend(group.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    notes.push(write_trace(args, &all_spans));

    let self_ns = spans::self_time_by_layer(&all_spans);
    let per_request = |layer: &str| {
        let requests: BTreeSet<u64> = all_spans
            .iter()
            .filter(|s| s.layer() == layer)
            .map(|s| s.request)
            .collect();
        self_ns.get(layer).copied().unwrap_or(0) as f64 / requests.len().max(1) as f64 / 1e3
    };

    let d = |f: fn(&re_server::StatsReport) -> u64| f(&after).saturating_sub(f(&before)) as f64;
    let hits = d(|s| s.plan_cache_hits);
    let misses = d(|s| s.plan_cache_misses);
    let opened = d(|s| s.sessions_opened);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let mut l = layer;
    let mut tcp_fetch: Vec<f64> = pooled(&runs, |r| &r.fetch_us).iter().map(|s| s.1).collect();
    let fetch_overhead =
        median(&mut tcp_fetch) - median(&mut l.server_fetch_us) - median(&mut l.codec_page_us);
    let untraced_rate = round_rate(&runs, |r| r.sessions, Some(false));
    let traced_rate = round_rate(&runs, |r| r.sessions, Some(true));
    let codec = |i: usize, pick: fn(&traced::CodecTotals) -> f64| {
        ratio(pick(&l.codec[i]), l.codec[i].rows as f64)
    };
    let codec_metrics = [
        codec(0, |c| c.encode_ns),
        codec(0, |c| c.decode_ns),
        codec(1, |c| c.encode_ns),
        codec(1, |c| c.decode_ns),
        codec(0, |c| c.bytes as f64),
        codec(1, |c| c.bytes as f64),
    ];
    // Points are pushed size by size: the last ones are at the largest size.
    let at_max = &sweep.points[sweep.points.len() - Shape::DEEP.len()..];
    for p in &sweep.points {
        notes.push(format!(
            "scale: {} |D|={} open {:.3} ms delay p99 {:.0} ns",
            p.0, p.1, p.2, p.3
        ));
    }
    notes.push(format!(
        "scale: open slope {:.3}, delay p99 slope {:.3} (the paper predicts the delay slope \
         below the preprocessing slope)",
        sweep.open_slope, sweep.delay_p99_slope
    ));
    let metrics = vec![
        ("error_rate", ratio(failed as f64, attempted as f64)),
        ("sql.normalize_us", median(&mut l.normalize_us)),
        ("sql.parse_us", median(&mut l.parse_us)),
        ("sql.plan_us", median(&mut l.plan_us)),
        ("sql.instantiate_us", median(&mut l.instantiate_us)),
        ("plan_cache.hit_ratio", ratio(hits, hits + misses)),
        (
            "server.preprocess_per_open",
            ratio(d(|s| s.enumerators_built), opened),
        ),
        ("server.open_us", median(&mut l.server_open_us)),
        ("server.fetch_us", median(&mut l.server_fetch_us)),
        ("server.close_us", median(&mut l.server_close_us)),
        ("session.parked_bytes_peak", parked_peak.into_inner() as f64),
        (
            "server.shed_ratio",
            ratio(d(|s| s.enumeration.requests_shed), attempted as f64),
        ),
        ("codec.json.encode_ns_per_row", codec_metrics[0]),
        ("codec.json.decode_ns_per_row", codec_metrics[1]),
        ("codec.binary.encode_ns_per_row", codec_metrics[2]),
        ("codec.binary.decode_ns_per_row", codec_metrics[3]),
        ("codec.json.bytes_per_row", codec_metrics[4]),
        ("codec.binary.bytes_per_row", codec_metrics[5]),
        ("transport.fetch_overhead_us", fetch_overhead),
        (
            "transport.wakeups_per_request",
            ratio(d(|s| s.transport.wakeups), attempted as f64),
        ),
        (
            "transport.epoll_waits_per_request",
            ratio(d(|s| s.transport.epoll_waits), attempted as f64),
        ),
        ("query.ghd_select_us", median(&mut l.ghd_select_us)),
        ("join.reduce_ms", median(&mut l.reduce_ms)),
        (
            "join.reduce_kept_ratio",
            ratio(l.reduce_kept_rows as f64, l.reduce_in_rows as f64),
        ),
        ("join.bags_ms", median(&mut l.bags_ms)),
        ("join.bag_rows", median(&mut l.bag_rows)),
        ("core.open_ms", median(&mut l.open_ms)),
        ("core.open_self_ms", median(&mut l.open_self_ms)),
        ("core.first_answer_us", median(&mut l.first_answer_us)),
        ("core.delay_p50_ns", quantile(&mut l.delay_ns, 0.5)),
        ("core.delay_p99_ns", quantile(&mut l.delay_ns, 0.99)),
        ("core.delay_max_ns", quantile(&mut l.delay_ns, 1.0)),
        ("core.frontier_peak_bytes", l.frontier_peak_bytes as f64),
        ("core.open_slope", sweep.open_slope),
        ("core.delay_p99_slope", sweep.delay_p99_slope),
        (
            "exec.pool_busy_ratio",
            ratio(
                l.pool_busy_us as f64,
                l.pool_wall_us * l.pool_threads.max(1) as f64,
            ),
        ),
        (
            "exec.tasks_per_open",
            ratio(l.pool_tasks as f64, l.opens as f64),
        ),
        (
            "exec.steal_ratio",
            ratio(l.pool_steals as f64, l.pool_tasks as f64),
        ),
        (
            "trace.overhead_pct",
            (ratio(untraced_rate, traced_rate) - 1.0) * 100.0,
        ),
        ("trace.sessions_per_s_untraced", untraced_rate),
        ("trace.sessions_per_s_traced", traced_rate),
        ("self.bench_us", per_request("bench")),
        ("self.client_us", per_request("client")),
        ("self.sql_us", per_request("sql")),
        ("self.query_us", per_request("query")),
        ("self.join_us", per_request("join")),
        ("self.core_us", per_request("core")),
        ("self.server_us", per_request("server")),
        ("self.codec_us", per_request("codec")),
        (
            "scale.open_ms_at_max",
            at_max.iter().map(|p| p.2).sum::<f64>(),
        ),
        (
            "scale.delay_p99_ns_at_max",
            median(&mut at_max.iter().map(|p| p.3).collect::<Vec<_>>()),
        ),
    ];
    Report {
        correct: verdict.wrong_pages == 0,
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// Write the merged spans as a Chrome trace; returns a note for the report.
fn write_trace(args: &Args, spans: &[spans::Span]) -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::chrome_trace_json(spans)));
    match written {
        Ok(()) => format!("trace: {} spans written to {}", spans.len(), path.display()),
        Err(e) => format!("trace: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod selftest {
    //! The harness checks itself at tiny scale: every metric is emitted
    //! under the name and unit `BENCHMARK.json` declares, a clean run has
    //! no failures, and corrupted pages fail the correctness check.

    use super::*;

    /// `(key, value)` string fields of one array section of
    /// `BENCHMARK.json`, in order (the file is flat enough that the
    /// section ends at its first `]`).
    fn section_fields(section: &str, key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let start = text
            .find(&format!("\"{section}\": ["))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section ends")];
        let pattern = format!("\"{key}\": \"");
        body.match_indices(&pattern)
            .map(|(i, _)| {
                let rest = &body[i + pattern.len()..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        let names = section_fields(section, "name");
        let units = section_fields(section, "unit");
        assert_eq!(names.len(), units.len());
        names.into_iter().zip(units).collect()
    }

    fn tiny(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 5,
            seconds: 0.4,
            trace,
            divisor: TINY_DIVISOR,
        }
    }

    fn assert_emits(report: &Report, declared: &[(String, String)], units: &[(&str, &str)]) {
        assert!(report.correct, "{:?}", report.notes);
        assert_eq!(report.failed, 0, "{:?}", report.notes);
        assert!(report.attempted > 0);
        let emitted: Vec<(String, String)> = report
            .metrics
            .iter()
            .map(|(name, value)| {
                assert!(value.is_finite(), "{name} is {value}");
                let unit = units.iter().find(|(n, _)| n == name).expect("declared").1;
                (name.to_string(), unit.to_string())
            })
            .collect();
        assert_eq!(&emitted, declared);
    }

    #[test]
    fn benchmark_json_names_the_workloads() {
        let names = section_fields("workloads", "name");
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn tiny_untraced_runs_emit_every_end_to_end_metric() {
        let declared = declared("end_to_end");
        for w in Workload::ALL {
            assert_emits(&untraced_run(&tiny(w, false)), &declared, &END_TO_END);
        }
    }

    #[test]
    fn tiny_traced_runs_emit_every_per_layer_metric() {
        let declared = declared("per_layer");
        for w in Workload::ALL {
            let report = traced_run(&tiny(w, true));
            assert_emits(&report, &declared, &PER_LAYER);
            let value = |name: &str| report.metrics.iter().find(|m| m.0 == name).expect(name).1;
            assert_eq!(value("server.preprocess_per_open"), 1.0, "{}", w.name());
            match w {
                Workload::TopkUnique => assert_eq!(value("plan_cache.hit_ratio"), 0.0),
                _ => assert!(value("plan_cache.hit_ratio") > 0.99),
            }
        }
    }

    #[test]
    fn corrupted_pages_fail_the_check() {
        let args = tiny(Workload::DeepScroll, false);
        let (served, _) = set_up_repeatedly(&args, 1);
        let window = Window {
            seconds: 0.2,
            trace_odd_rounds: false,
            last_round: 1,
        };
        let mut runs = drive::drive(&served, args.workload, args.seed, &window);
        let verdict = drive::verify(&runs, &served.data, args.workload);
        assert_eq!(verdict.wrong_pages, 0, "{:?}", verdict.problems);

        // Two rows of different rank swapped.
        let (stmt, stream) = runs[0]
            .streams
            .iter_mut()
            .find(|(_, r)| r.rows.len() > 1)
            .expect("a stream with two rows");
        let first = check::key(stmt.shape, &stream.rows[0]);
        let later = (1..stream.rows.len())
            .find(|&j| check::key(stmt.shape, &stream.rows[j]) != first)
            .expect("a row of another rank");
        stream.rows.swap(0, later);
        let verdict = drive::verify(&runs, &served.data, args.workload);
        assert!(verdict.wrong_pages > 0, "swapped rows pass the check");
        let stream = runs[0]
            .streams
            .values_mut()
            .find(|r| r.rows.len() > 1)
            .unwrap();
        stream.rows.swap(0, later);

        // A duplicated row.
        let stream = runs[1].streams.values_mut().next().expect("a stream");
        let first = stream.rows[0].clone();
        stream.rows[1] = first;
        let verdict = drive::verify(&runs, &served.data, args.workload);
        assert!(verdict.wrong_pages > 0, "a duplicate passes the check");
        served.handle.shutdown();
    }
}
