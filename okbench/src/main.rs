//! okbench: host-time benchmark of OKWS on the Asbestos simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path okbench/Cargo.toml -- \
//!     --workload sessions|db-mix|fed-k2 --seed N --seconds S --trace 0|1
//! ```
//!
//! One workload per process, single-threaded. The untraced run sets the
//! deployment up several times (reporting the median set-up time), then
//! runs whole rounds of the closed loop for `--seconds` and prints the
//! end-to-end metrics. The traced run measures a fixed number of rounds
//! twice on fresh deployments, once plain and once with spans, and prints
//! the per-layer metrics. Every response is checked against the
//! benchmark's own model; the last stdout line is the JSON result.

mod deploy;
mod model;
mod ops;
mod probe;
mod stats;
mod trace;
mod window;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use asbestos_kernel::Stats;

use crate::deploy::{Cycles, Target};
use crate::model::Model;
use crate::ops::{OpGen, Workload};
use crate::stats::{median, percentile};
use crate::trace::{Layer, Tracer};
use crate::window::{run_round, Round, MAX_OUTSTANDING};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    /// Rounds in one window.
    fn rounds(&self) -> usize {
        (self.seconds as f64 * self.workload.rounds_per_second()).ceil() as usize
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("okbench: {e}");
            eprintln!(
                "usage: okbench --workload sessions|db-mix|fed-k2 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    // The ASBESTOS_* knobs silently change cache capacity, worker
    // threads, tuning, group commit, lanes and kernel count.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("ASBESTOS_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("okbench: refusing to run with {} set", knobs.join(", "));
        return ExitCode::from(2);
    }
    let checker_ok = model::self_test();
    println!(
        "checker self-test: {}",
        if checker_ok { "pass" } else { "FAIL" }
    );
    let report = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    report.print(checker_ok);
    ExitCode::SUCCESS
}

/// Counters snapshotted at a window's edges.
#[derive(Clone, Copy)]
struct Counters {
    stats: Stats,
    cycles: Cycles,
    frames: u64,
    wire_bytes: u64,
    syncs: u64,
    cache_entries: usize,
}

impl Counters {
    fn take(target: &Target) -> Counters {
        let wire = target.wire();
        Counters {
            stats: target.stats(),
            cycles: target.cycles(),
            frames: wire.frames_out,
            wire_bytes: wire.bytes_out,
            syncs: target.device().map_or(0, |d| d.sync_count()),
            cache_entries: target
                .kernels()
                .iter()
                .map(|k| k.delivery_cache_len())
                .sum(),
        }
    }

    /// The counts a run must repeat exactly under one seed.
    fn exact(&self, since: &Counters) -> [u64; 9] {
        let (s, b) = (&self.stats, &since.stats);
        [
            s.delivered - b.delivered,
            s.cache_hits - b.cache_hits,
            s.cache_misses - b.cache_misses,
            self.frames - since.frames,
            self.syncs - since.syncs,
            self.cycles.okws - since.cycles.okws,
            self.cycles.okdb - since.cycles.okdb,
            self.cycles.kernel_ipc - since.cycles.kernel_ipc,
            self.cycles.network - since.cycles.network,
        ]
    }
}

/// A measured window: whole rounds on one deployment.
struct Window {
    rounds: Vec<Round>,
    seconds: f64,
    before: Counters,
    after: Counters,
}

impl Window {
    fn run(
        target: &mut Target,
        gen: &mut OpGen,
        model: &mut Model,
        tr: &mut Tracer,
        rounds: usize,
    ) -> Window {
        let before = Counters::take(target);
        let start = Instant::now();
        let rounds: Vec<Round> = (0..rounds)
            .map(|_| run_round(target, &gen.next_round(), model, tr))
            .collect();
        let seconds = start.elapsed().as_secs_f64();
        let after = Counters::take(target);
        Window {
            rounds,
            seconds,
            before,
            after,
        }
    }

    fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.rounds.iter().map(|r| r.failed).sum()
    }

    /// Correct answers per host second of the window.
    fn goodput_rps(&self) -> f64 {
        let busy: f64 = self.rounds.iter().map(|r| r.seconds).sum();
        (self.attempted() - self.failed()) as f64 / busy
    }

    /// Each round's 99th-percentile latency (a round holds about 500
    /// samples, 5 of them beyond its p99), taken at the 10th percentile
    /// over the window's rounds. Host stalls on a shared VM come in
    /// bursts that push 1 % of a round's requests past the program's own
    /// tail; the least-disturbed rounds show the program's tail.
    fn p99_ms(&self) -> f64 {
        let per_round: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| percentile(&r.latencies_ms, 99.0))
            .collect();
        percentile(&per_round, 10.0)
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(|r| r.latencies_ms.iter().copied())
            .collect()
    }
}

struct Report {
    workload: Workload,
    attempted: u64,
    failed: u64,
    /// End-of-run audits: each `(what, held)`.
    audits: Vec<(String, bool)>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn print(&self, checker_ok: bool) {
        for (what, held) in &self.audits {
            println!("audit {what}: {}", if *held { "ok" } else { "FAILED" });
        }
        println!(
            "{}: attempted {} failed {}",
            self.workload.name(),
            self.attempted,
            self.failed
        );
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
        }
        let correct = checker_ok && self.audits.iter().all(|(_, held)| *held);
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Builds the deployment; returns it with its request stream and model
/// positioned at the start of the window, and the set-up time.
fn setup(args: &Args) -> (Target, OpGen, Model, f64) {
    let mut gen = OpGen::new(args.workload, args.seed);
    let mut model = Model::new(args.workload.accounts());
    let start = Instant::now();
    let target = Target::setup(args.workload, &mut gen, &mut model);
    (target, gen, model, start.elapsed().as_secs_f64())
}

/// Audits the drained deployment against the model: live session event
/// processes, and (durable workload) every profile row recovered from the
/// device.
fn audit(target: &mut Target, model: &Model, db: Option<&probe::DbProbe>) -> Vec<(String, bool)> {
    target.run_idle();
    let live = target.live_eps();
    let mut audits = vec![(
        format!(
            "live session event processes {live} = model {}",
            model.live_sessions()
        ),
        live == model.live_sessions() as u64,
    )];
    if let Some(db) = db {
        let mut got = db.rows.clone();
        let mut want = model.rows();
        got.sort_unstable();
        want.sort_unstable();
        audits.push((
            format!(
                "recovered profile rows {} = model {}",
                got.len(),
                want.len()
            ),
            got == want,
        ));
    }
    audits
}

fn kb_per_session(bytes: usize, target: &Target) -> f64 {
    bytes as f64 / 1024.0 / target.live_eps().max(1) as f64
}

fn untraced(args: &Args) -> Report {
    let setups = args.workload.setups();
    let mut setup_s = Vec::with_capacity(setups);
    let mut built = None;
    for _ in 0..setups {
        // Free the previous deployment before timing the next.
        drop(built.take());
        let (target, gen, model, secs) = setup(args);
        setup_s.push(secs);
        built = Some((target, gen, model));
    }
    let (mut target, mut gen, mut model) = built.expect("at least one set-up ran");
    print_deployment(args, &target);
    let samples: Vec<String> = setup_s.iter().map(|s| format!("{s:.3}")).collect();
    println!("set-up times (s): {}", samples.join(" "));
    println!("host.reference_ms = {} ms", probe::host_reference_ms());
    let window = Window::run(
        &mut target,
        &mut gen,
        &mut model,
        &mut Tracer::new(false),
        args.rounds(),
    );
    // Read before the probes, which allocate recovered copies.
    let peak_rss_mb = probe::peak_rss_mb();
    let kmem = kb_per_session(target.kmem().total_bytes(), &target);
    let db = probe::db(&target);
    let audits = audit(&mut target, &model, db.as_ref());
    let lat = window.latencies_ms();
    println!(
        "window: {} rounds, {:.3} s, {} latency samples",
        window.rounds.len(),
        window.seconds,
        lat.len()
    );
    let per_round: Vec<String> = window
        .rounds
        .iter()
        .map(|r| format!("{:.0}", r.attempted as f64 / r.seconds))
        .collect();
    println!("round goodput (1/s): {}", per_round.join(" "));
    let per_round: Vec<String> = window
        .rounds
        .iter()
        .map(|r| format!("{:.3}", percentile(&r.latencies_ms, 99.0)))
        .collect();
    println!("round p99 (ms): {}", per_round.join(" "));
    let per_round: Vec<String> = window
        .rounds
        .iter()
        .map(|r| format!("{:.3}", median(&r.latencies_ms)))
        .collect();
    println!("round p50 (ms): {}", per_round.join(" "));
    Report {
        workload: args.workload,
        attempted: window.attempted(),
        failed: window.failed(),
        audits,
        metrics: vec![
            ("setup_s", median(&setup_s), "s"),
            ("goodput_rps", window.goodput_rps(), "1/s"),
            ("latency_p50_ms", median(&lat), "ms"),
            ("latency_p99_ms", window.p99_ms(), "ms"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
            ("kmem_kb_per_session", kmem, "KB"),
        ],
    }
}

fn print_deployment(args: &Args, target: &Target) {
    println!(
        "deployment: workload={} seed={} seconds={} trace={} {} max_outstanding={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        target.describe(args.workload),
        MAX_OUTSTANDING,
    );
}

fn traced(args: &Args) -> Report {
    let (mut target, mut gen, mut model, _) = setup(args);
    let plain = Window::run(
        &mut target,
        &mut gen,
        &mut model,
        &mut Tracer::new(false),
        args.rounds(),
    );
    drop(target);

    let (mut target, mut gen, mut model, _) = setup(args);
    print_deployment(args, &target);
    let rows_start = model.rows().len();
    let reference_ms = probe::host_reference_ms();
    let mut tr = Tracer::new(true);
    let w = Window::run(&mut target, &mut gen, &mut model, &mut tr, args.rounds());
    let spans_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("spans")
        .join(format!("{}-seed{}.csv", args.workload.name(), args.seed));
    if let Err(e) = tr.write(&spans_path) {
        eprintln!("okbench: could not write {}: {e}", spans_path.display());
    }
    println!(
        "spans: {} written to {}",
        tr.span_count(),
        spans_path.display()
    );

    let req = w.attempted().max(1) as f64;
    let per_req = |n: u64| n as f64 / req;
    let us_per_req = |ns: u64| ns as f64 / 1e3 / req;
    let (s, b) = (&w.after.stats, &w.before.stats);
    let (c, cb) = (&w.after.cycles, &w.before.cycles);
    let hits = s.cache_hits - b.cache_hits;
    let lookups = hits + s.cache_misses - b.cache_misses;
    let kmem = target.kmem();
    let labels = probe::labels(&target);
    let db = probe::db(&target);
    let capacity: usize = target
        .kernels()
        .iter()
        .flat_map(|k| (0..k.num_shards()).map(|i| k.shard(i).delivery_cache_capacity()))
        .sum();
    println!(
        "make-up: profile rows {rows_start} at window start, {} at end; delivery cache {} entries at start, {} at end, capacity {capacity}; wire {:.0} B/request",
        db.as_ref().map_or(0, |d| d.rows.len()),
        w.before.cache_entries,
        w.after.cache_entries,
        (w.after.wire_bytes - w.before.wire_bytes) as f64 / w.attempted().max(1) as f64,
    );
    let mut audits = audit(&mut target, &model, db.as_ref());
    let repeat = w.after.exact(&w.before) == plain.after.exact(&plain.before);
    audits.push((
        "traced and untraced windows made identical counts".to_string(),
        repeat,
    ));
    let spans_ns: u64 = trace::LAYERS.iter().map(|&(l, _)| tr.total_ns(l)).sum();
    let window_ns = (w.seconds * 1e9) as u64;
    let (plain_rps, traced_rps) = (plain.goodput_rps(), w.goodput_rps());

    Report {
        workload: args.workload,
        attempted: plain.attempted() + w.attempted(),
        failed: plain.failed() + w.failed(),
        audits,
        metrics: vec![
            (
                "kernel.step_us_per_req",
                us_per_req(tr.total_ns(Layer::Kernel)),
                "us",
            ),
            (
                "kernel.deliveries_per_req",
                per_req(s.delivered - b.delivered),
                "count",
            ),
            (
                "kernel.ctx_switches_per_req",
                per_req(s.context_switches - b.context_switches),
                "count",
            ),
            (
                "kernel.ep_switches_per_req",
                per_req(s.ep_switches - b.ep_switches),
                "count",
            ),
            (
                "kernel.drops_per_req",
                per_req(s.dropped_total() - b.dropped_total()),
                "count",
            ),
            (
                "kernel.eps_created_per_req",
                per_req(s.eps_created - b.eps_created),
                "count",
            ),
            (
                "kernel.cache_hit_ratio",
                hits as f64 / lookups.max(1) as f64,
                "ratio",
            ),
            (
                "kernel.cache_evictions_per_req",
                per_req(s.cache_evictions - b.cache_evictions),
                "count",
            ),
            (
                "kernel.cache_mb",
                kmem.delivery_cache_bytes as f64 / 1048576.0,
                "MB",
            ),
            (
                "kernel.label_kb_per_session",
                kb_per_session(kmem.process_bytes + kmem.ep_bytes, &target),
                "KB",
            ),
            (
                "kernel.xshard_per_req",
                per_req(
                    s.xshard_subround + s.xshard_barrier - b.xshard_subround - b.xshard_barrier,
                ),
                "count",
            ),
            ("kernel.queue_depth_hwm", s.queue_depth_hwm as f64, "count"),
            ("labels.max_entries", labels.max_entries as f64, "count"),
            ("labels.check_delivery_ns", labels.check_delivery_ns, "ns"),
            ("labels.lub_ns", labels.lub_ns, "ns"),
            (
                "net.client_us_per_req",
                us_per_req(tr.total_ns(Layer::Client)),
                "us",
            ),
            (
                "net.retries_per_req",
                per_req(w.rounds.iter().map(|r| r.retries).sum()),
                "count",
            ),
            ("vcycles.okws_per_req", per_req(c.okws - cb.okws), "cycles"),
            ("vcycles.okdb_per_req", per_req(c.okdb - cb.okdb), "cycles"),
            (
                "vcycles.kernel_ipc_per_req",
                per_req(c.kernel_ipc - cb.kernel_ipc),
                "cycles",
            ),
            (
                "vcycles.network_per_req",
                per_req(c.network - cb.network),
                "cycles",
            ),
            (
                "db.syncs_per_req",
                per_req(w.after.syncs - w.before.syncs),
                "count",
            ),
            (
                "db.rows",
                db.as_ref().map_or(0, |d| d.rows.len()) as f64,
                "count",
            ),
            (
                "db.recovery_ms",
                db.as_ref().map_or(0.0, |d| d.recovery_ms),
                "ms",
            ),
            (
                "db.select_us",
                db.as_ref().map_or(0.0, |d| d.select_us),
                "us",
            ),
            (
                "cluster.pump_us_per_req",
                us_per_req(tr.total_ns(Layer::Wire)),
                "us",
            ),
            (
                "cluster.frames_per_req",
                per_req(w.after.frames - w.before.frames),
                "count",
            ),
            (
                "cluster.wire_bytes_per_req",
                per_req(w.after.wire_bytes - w.before.wire_bytes),
                "B",
            ),
            ("host.reference_ms", reference_ms, "ms"),
            (
                "trace.check_us_per_req",
                us_per_req(tr.total_ns(Layer::Check)),
                "us",
            ),
            (
                "trace.unaccounted_us_per_req",
                us_per_req(window_ns.saturating_sub(spans_ns)),
                "us",
            ),
            (
                "trace.span_share",
                spans_ns as f64 / window_ns.max(1) as f64,
                "ratio",
            ),
            ("trace.goodput_untraced_rps", plain_rps, "1/s"),
            ("trace.goodput_traced_rps", traced_rps, "1/s"),
            (
                "trace.overhead_pct",
                100.0 * (plain_rps - traced_rps) / plain_rps.max(f64::MIN_POSITIVE),
                "%",
            ),
        ],
    }
}
