//! The single-session workloads: `explore-medium`, `explore-low-churn` and
//! `batch-medium`.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hashstash::durability::FsyncPolicy;
use hashstash::plan::QuerySpec;
use hashstash::storage::Catalog;
use hashstash::{BatchMode, Database, EngineStrategy};
use hashstash_workload::trace::{generate_trace, ReusePotential, TraceConfig};

use crate::check::{build_id, Answer, Answers, Counters};
use crate::report::{median, mib, peak_rss_mb, percentile, ratio, reset_peak_rss};
use crate::span::Tracer;
use crate::speed::SpeedClock;
use crate::{parallelism, setup, Args, Outcome, Scratch, Workload, OUT_DIR};

/// Queries per batch in `batch-medium`.
const BATCH: usize = 8;
/// Cache budget of `explore-low-churn`.
const LOW_CHURN_BUDGET: usize = 4 << 20;
/// Opening queries of the first trace replayed after the restart.
const REPLAY: usize = 8;
/// The durable engine's WAL fsync policy.
const FSYNC: FsyncPolicy = FsyncPolicy::Interval;

struct Shape {
    reuse: ReusePotential,
    budget: Option<usize>,
    durable: bool,
    batched: bool,
    /// Queries in the counted prefix: a fixed amount of work, about
    /// as long as a 10-second window, that every run completes.
    counted: usize,
}

fn shape(w: Workload) -> Shape {
    match w {
        Workload::ExploreMedium => Shape {
            reuse: ReusePotential::Medium,
            budget: None,
            durable: true,
            batched: false,
            counted: 96,
        },
        Workload::ExploreLowChurn => Shape {
            reuse: ReusePotential::Low,
            budget: Some(LOW_CHURN_BUDGET),
            durable: false,
            batched: false,
            counted: 704,
        },
        Workload::BatchMedium => Shape {
            reuse: ReusePotential::Medium,
            budget: None,
            durable: false,
            batched: true,
            counted: 184,
        },
        Workload::ServeTenants => unreachable!("serve-tenants runs in serve.rs"),
    }
}

/// Trace `t` of every run uses trace seed `TRACE_SEED + t`; trace 0 is the
/// experiment binaries' default trace. The traces do not vary with the
/// workload seed: one Medium trace costs up to 30% more or less than
/// another, which a run of a few traces cannot average away.
const TRACE_SEED: u64 = 42;

/// The run's traces, generated on first use.
struct Traces {
    reuse: ReusePotential,
    traces: Vec<Vec<QuerySpec>>,
}

impl Traces {
    fn get(&mut self, t: usize) -> &[QuerySpec] {
        while self.traces.len() <= t {
            let seed = TRACE_SEED + self.traces.len() as u64;
            let trace = generate_trace(TraceConfig::paper(self.reuse, seed));
            self.traces
                .push(trace.into_iter().map(|tq| tq.query).collect());
        }
        &self.traces[t]
    }
}

fn build(shape: &Shape, catalog: Catalog, dir: Option<&Path>) -> Result<Arc<Database>, String> {
    let mut b = Database::builder(catalog)
        .strategy(EngineStrategy::HashStash)
        .parallelism(parallelism())
        .gc_budget(shape.budget);
    if let Some(dir) = dir {
        b = b.data_dir(dir).fsync(FSYNC);
    }
    b.try_build().map_err(|e| format!("engine build: {e}"))
}

/// What a pass measured over its counted prefix.
#[derive(Clone)]
struct Prefix {
    counters: Counters,
    queries: u64,
    /// Time spent in requests: wall seconds, and reference seconds (see
    /// `speed`).
    wall_s: f64,
    ref_s: f64,
    rss_mb: f64,
}

impl Prefix {
    /// Queries per reference second.
    fn queries_per_s(&self) -> f64 {
        self.queries as f64 / self.ref_s
    }
}

/// One measured pass over the traces.
#[derive(Default)]
struct Pass {
    /// Latency of each request: a query, or a batch.
    lat_ms: Vec<f64>,
    queries: u64,
    prefix: Option<Prefix>,
    /// `opt.plan` span durations and execute-minus-plan time within the
    /// counted prefix (traced pass only).
    plan_ms: Vec<f64>,
    exec_self_ms: f64,
    breakers: u64,
    reused: u64,
    wall_s: f64,
    ref_s: f64,
    kernel_us_p50: f64,
}

/// Run requests until `seconds` have passed and the counted prefix is done.
fn pass(
    db: &Arc<Database>,
    shape: &Shape,
    traces: &mut Traces,
    seconds: u64,
    tracer: &mut Tracer,
    answers: &mut Answers<(usize, usize)>,
    out: &mut Outcome,
) -> Pass {
    let mut session = db.session();
    let mut p = Pass::default();
    let unit = if shape.batched { BATCH } else { 1 };
    let mut record = |p: &mut Pass, t: usize, first: usize, results: &[hashstash::QueryResult]| {
        for (j, r) in results.iter().enumerate() {
            answers.record((t, first + j), Answer::of_rows(&r.rows));
            p.breakers += r.decisions.len() as u64;
            p.reused += r.decisions.iter().filter(|(_, c)| c.is_some()).count() as u64;
        }
    };
    if shape.batched {
        // One warm batch, outside the measured window.
        let warm = traces.get(0)[..BATCH].to_vec();
        out.attempted += warm.len() as u64;
        match session.execute_batch(&warm, BatchMode::SingleWithReuse) {
            Ok(results) => record(&mut p, 0, 0, &results),
            Err(e) => {
                out.failed += warm.len() as u64;
                out.defects.push(format!("warm batch: {e}"));
            }
        }
    }
    let mut clock = SpeedClock::new();
    let window = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut request = 0u64;
    // Queries sent in the measured window.
    let mut sent = 0usize;
    'run: for t in 0usize.. {
        let trace = traces.get(t).to_vec();
        let skip = if shape.batched && t == 0 { BATCH } else { 0 };
        for (k, specs) in trace[skip..].chunks(unit).enumerate() {
            if p.prefix.is_some() && start.elapsed() >= window {
                break 'run;
            }
            let first = skip + k * unit;
            request += 1;
            let ((result, plan_ms, exec_ms), timed) = clock.time(|| {
                tracer.enter("request", request);
                let mut plan_ms = 0.0;
                if tracer.on() {
                    for q in specs {
                        tracer.enter("opt.plan", request);
                        let planned = session.plan_only(q);
                        let ms = tracer.exit();
                        plan_ms += ms;
                        if p.prefix.is_none() {
                            p.plan_ms.push(ms);
                        }
                        if let Err(e) = planned {
                            out.defects
                                .push(format!("plan_only, trace {t} query {first}: {e}"));
                        }
                    }
                }
                let result = if shape.batched {
                    tracer.enter("core.execute_batch", request);
                    session.execute_batch(specs, BatchMode::SharedWithReuse)
                } else {
                    tracer.enter("core.execute", request);
                    session.execute(&specs[0]).map(|r| vec![r])
                };
                let exec_ms = tracer.exit();
                tracer.exit();
                (result, plan_ms, exec_ms)
            });
            p.wall_s += timed.wall_s;
            p.ref_s += timed.ref_s();
            if p.prefix.is_none() {
                p.exec_self_ms += (exec_ms - plan_ms).max(0.0);
            }
            out.attempted += specs.len() as u64;
            match result {
                Ok(results) => {
                    p.lat_ms.push(timed.wall_s * 1e3);
                    p.queries += specs.len() as u64;
                    record(&mut p, t, first, &results);
                }
                Err(e) => {
                    out.failed += specs.len() as u64;
                    out.defects.push(format!("trace {t} query {first}: {e}"));
                }
            }
            sent += specs.len();
            if sent == shape.counted {
                p.prefix = Some(Prefix {
                    counters: Counters::capture(&session.stats().metrics, &db.cache_stats()),
                    queries: p.queries,
                    wall_s: p.wall_s,
                    ref_s: p.ref_s,
                    rss_mb: peak_rss_mb(),
                });
            }
        }
    }
    p.kernel_us_p50 = median(clock.kernels_s()) * 1e6;
    p
}

/// What the durability epilogue of `explore-medium` measured.
struct Restart {
    flush_s: f64,
    recover_s: f64,
    warm_replay_s: f64,
    disk_mb: f64,
    persisted: usize,
    rehydrated: usize,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Flush, drop the engine, reopen it from `dir` with an empty catalog and
/// replay the first trace's opening queries.
fn restart(
    db: Arc<Database>,
    dir: &Path,
    traces: &mut Traces,
    answers: &mut Answers<(usize, usize)>,
    out: &mut Outcome,
) -> Result<Restart, String> {
    let t0 = Instant::now();
    db.flush().map_err(|e| format!("flush: {e}"))?;
    let flush_s = t0.elapsed().as_secs_f64();
    let disk_mb = mib(dir_bytes(dir));
    let persisted = db.cache_stats().entries;
    drop(db);

    let t1 = Instant::now();
    let db = Database::builder(Catalog::new())
        .strategy(EngineStrategy::HashStash)
        .parallelism(parallelism())
        .data_dir(dir)
        .fsync(FSYNC)
        .try_build()
        .map_err(|e| format!("recovery: {e}"))?;
    let recover_s = t1.elapsed().as_secs_f64();
    let rehydrated = db.cache_stats().entries;

    let mut session = db.session();
    let t2 = Instant::now();
    for (i, q) in traces.get(0)[..REPLAY].to_vec().iter().enumerate() {
        out.attempted += 1;
        match session.execute(q) {
            Ok(r) => answers.record((0, i), Answer::of_rows(&r.rows)),
            Err(e) => {
                out.failed += 1;
                out.defects.push(format!("warm replay query {i}: {e}"));
            }
        }
    }
    let warm_replay_s = t2.elapsed().as_secs_f64();
    Ok(Restart {
        flush_s,
        recover_s,
        warm_replay_s,
        disk_mb,
        persisted,
        rehydrated,
    })
}

pub fn run(w: Workload, args: &Args, scratch: &Scratch, out: &mut Outcome) -> Result<(), String> {
    let shape = shape(w);
    let data_dir = |tag: &str| shape.durable.then(|| scratch.path(&format!("data-{tag}")));
    let (db, catalog) = setup(args.seed, out, |catalog, rep| {
        build(&shape, catalog, data_dir(&rep.to_string()).as_deref())
    })?;
    // Only the last set-up's data directory is used from here on.
    for rep in 0..crate::SETUP_REPS - 1 {
        if let Some(dir) = data_dir(&rep.to_string()) {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    out.env.push((
        "fsync",
        format!(
            "\"{}\"",
            if shape.durable {
                FSYNC.name()
            } else {
                "in-memory"
            }
        ),
    ));
    out.env.push((
        "budget_bytes",
        shape.budget.map_or("null".to_string(), |b| b.to_string()),
    ));
    out.env.push(("vectorize", db.vectorize().to_string()));

    let mut traces = Traces {
        reuse: shape.reuse,
        traces: Vec::new(),
    };
    let mut answers = Answers::new();
    let epoch = Instant::now();

    // Untraced pass: the end-to-end numbers.
    if let Err(e) = reset_peak_rss() {
        out.defects
            .push(format!("resetting the peak resident set: {e}"));
    }
    let a = pass(
        &db,
        &shape,
        &mut traces,
        args.seconds,
        &mut Tracer::new(false, epoch),
        &mut answers,
        out,
    );
    let prefix_a = a
        .prefix
        .clone()
        .ok_or("the counted prefix did not complete")?;
    out.e2e.set("peak_rss_mb", prefix_a.rss_mb, "MiB");
    out.e2e
        .set("queries_per_s", prefix_a.queries_per_s(), "1/s");
    out.detail.set(
        "raw_queries_per_s",
        prefix_a.queries as f64 / prefix_a.wall_s,
        "1/s",
    );
    out.detail.set("kernel_us_p50", a.kernel_us_p50, "us");
    if shape.batched {
        out.detail.set("batch_p50_ms", median(&a.lat_ms), "ms");
    } else {
        out.detail.set("query_p50_ms", median(&a.lat_ms), "ms");
        out.detail
            .set("query_p90_ms", percentile(&a.lat_ms, 90.0), "ms");
    }
    let mut restart_a = None;
    if let Some(dir) = data_dir(&(crate::SETUP_REPS - 1).to_string()) {
        let r = restart(db, &dir, &mut traces, &mut answers, out)?;
        out.detail.set("flush_s", r.flush_s, "s");
        out.detail.set("recover_s", r.recover_s, "s");
        out.detail.set("warm_replay_s", r.warm_replay_s, "s");
        restart_a = Some(r);
    } else {
        drop(db);
    }

    let record =
        Path::new(OUT_DIR)
            .join("counters")
            .join(format!("{}-seed{}.txt", w.name(), args.seed));
    match build_id().and_then(|build| prefix_a.counters.check_against_record(&record, build)) {
        Ok(drift) => out.defects.extend(
            drift
                .into_iter()
                .map(|d| format!("counter drift across runs of this seed: {d}")),
        ),
        Err(e) => out
            .defects
            .push(format!("counter record {}: {e}", record.display())),
    }

    if args.trace {
        // Traced pass on a fresh engine: the per-layer numbers.
        let dir = data_dir("traced");
        let db = build(&shape, catalog.clone(), dir.as_deref())?;
        let mut tracer = Tracer::new(true, epoch);
        let b = pass(
            &db,
            &shape,
            &mut traces,
            args.seconds,
            &mut tracer,
            &mut answers,
            out,
        );
        let restart_b = match &dir {
            Some(dir) => Some(restart(db, dir, &mut traces, &mut answers, out)?),
            None => {
                drop(db);
                None
            }
        };
        let prefix_b = b
            .prefix
            .clone()
            .ok_or("the counted prefix did not complete")?;
        out.defects.extend(
            prefix_b
                .counters
                .diff(&prefix_a.counters, &["cache.candidate_lookups"])
                .into_iter()
                .map(|d| format!("traced pass counters differ from the untraced pass: {d}")),
        );
        crate::set_counter_metrics(&mut out.layer, &prefix_a.counters);
        out.layer.set("opt.plan_ms_p50", median(&b.plan_ms), "ms");
        out.layer
            .set("opt.plan_ms_total", b.plan_ms.iter().sum::<f64>(), "ms");
        out.layer.set(
            "opt.reuse_decision_ratio",
            ratio(a.reused, a.breakers),
            "ratio",
        );
        out.layer.set("exec.self_ms_total", b.exec_self_ms, "ms");
        let qps_b = prefix_b.queries_per_s();
        out.layer.set(
            "trace.overhead_pct",
            (prefix_a.queries_per_s() / qps_b - 1.0) * 100.0,
            "%",
        );
        let r = restart_b.as_ref().or(restart_a.as_ref());
        out.layer
            .set("durability.disk_mb", r.map_or(0.0, |r| r.disk_mb), "MiB");
        out.layer.set(
            "durability.persisted_entries",
            r.map_or(0, |r| r.persisted) as f64,
            "count",
        );
        out.layer.set(
            "durability.rehydrated_entries",
            r.map_or(0, |r| r.rehydrated) as f64,
            "count",
        );
        for (name, ms) in tracer.self_ms() {
            out.detail.set(&format!("self_ms.{name}"), ms, "ms");
        }
        out.spans = Some(tracer);
    }
    // Layers this workload does not reach read zero.
    for (name, unit) in [
        ("cache.hot_evictions", "count"),
        ("cache.churn_evictions", "count"),
        ("cache.hot_hit_ratio", "ratio"),
        ("server.reply_kb_total", "KiB"),
        ("server.overhead_us_p50", "us"),
        ("sql.parse_us_p50", "us"),
    ] {
        out.layer.set(name, 0.0, unit);
    }

    // Oracle: every answer against a NoReuse engine over the same data.
    let oracle = Database::builder(catalog)
        .strategy(EngineStrategy::NoReuse)
        .parallelism(parallelism())
        .build();
    let mut session = oracle.session();
    let (wrong, why) = answers.verify(|&(t, i)| {
        session
            .execute(&traces.get(t)[i])
            .map(|r| Answer::of_rows(&r.rows))
            .map_err(|e| e.to_string())
    });
    out.failed += wrong;
    out.defects.extend(why);
    Ok(())
}
