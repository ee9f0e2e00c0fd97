//! `serve-tenants`: a real `Server` on loopback, one `hot` dashboard
//! connection and one `churn` connection sharing one cache budget.

use std::collections::BTreeMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hashstash::storage::tpch::{generate, TpchConfig};
use hashstash::storage::Catalog;
use hashstash::{Database, EngineStrategy, Session, TenantId};
use hashstash_server::protocol::{read_text, write_frame};
use hashstash_server::{CatalogSchema, Server, ServerConfig, TenantSpec};
use hashstash_sql::parse_query;

use crate::check::{raw_digest, Answer, Answers, Counters};
use crate::report::{median, peak_rss_mb, percentile, ratio, reset_peak_rss};
use crate::span::Tracer;
use crate::speed::SpeedClock;
use crate::{parallelism, setup, Args, Outcome, SF};

/// The hot tenant's dashboard: repeats are exact cache hits.
const HOT_QUERIES: [&str; 3] = [
    "SELECT c_age, COUNT(c_custkey) FROM customer GROUP BY c_age",
    "SELECT c_age, AVG(c_acctbal) FROM customer WHERE c_age >= 30 GROUP BY c_age",
    "SELECT c_custkey, c_age FROM customer WHERE c_age <= 45",
];

/// Month windows from 1992-01 to 1998-08, the TPC-H order date range.
const MONTHS: usize = 80;

/// Month window `i` (cyclic) of the churn tenant's march: disjoint
/// windows, so each builds and publishes fresh join tables.
fn churn_query(i: usize) -> String {
    let i = i % MONTHS;
    let (year, month) = (1992 + i / 12, 1 + i % 12);
    format!(
        "SELECT c_age, SUM(l_quantity) FROM customer \
         JOIN orders ON customer.c_custkey = orders.o_custkey \
         JOIN lineitem ON orders.o_orderkey = lineitem.l_orderkey \
         WHERE o_orderdate BETWEEN '{year}-{month:02}-01' AND '{year}-{month:02}-25' \
         GROUP BY c_age"
    )
}

const HOT: (&str, &str) = ("hot", "hot-secret");
const CHURN: (&str, &str) = ("churn", "churn-secret");

/// Churn windows per round, after the hot dashboard's queries: more than
/// the three the budget holds besides the hot set, so that without its
/// floor the hot set is the least recently used when the round's last
/// window publishes.
const CHURN_PER_ROUND: usize = 4;
/// Rounds every run completes and measures: five marches through the
/// month windows.
const COUNTED_ROUNDS: usize = 5 * MONTHS / CHURN_PER_ROUND;

/// Unbounded sizing pass: the hot tenant's steady footprint and the mean
/// bytes one churn window publishes.
fn size_workload(catalog: Catalog) -> Result<(usize, usize), String> {
    let db = Database::builder(catalog)
        .parallelism(parallelism())
        .build();
    let hot = db.register_tenant(HOT.0);
    let churn = db.register_tenant(CHURN.0);
    let run = |tenant: TenantId, sql: &str| -> Result<(), String> {
        let q = parse_query(sql, 0, &CatalogSchema(db.catalog())).map_err(|e| e.render(sql))?;
        db.session_as(tenant)
            .execute(&q)
            .map(drop)
            .map_err(|e| e.to_string())
    };
    for _ in 0..2 {
        for sql in HOT_QUERIES {
            run(hot, sql)?;
        }
    }
    const WINDOWS: usize = 4;
    for i in 0..WINDOWS {
        run(churn, &churn_query(i))?;
    }
    let hot_bytes = db.tenant_cache_stats(hot).bytes;
    let window = db.tenant_cache_stats(churn).bytes / WINDOWS;
    if hot_bytes == 0 || window == 0 {
        return Err("sizing pass published nothing".to_string());
    }
    Ok((hot_bytes, window))
}

fn start(catalog: Catalog, budget: usize, floor: usize) -> Result<(Arc<Database>, Server), String> {
    let db = Database::builder(catalog)
        .strategy(EngineStrategy::HashStash)
        .gc_budget(budget)
        .parallelism(parallelism())
        .build();
    let tenant = |(name, token): (&str, &str), floor_bytes| TenantSpec {
        name: name.to_string(),
        token: token.to_string(),
        floor_bytes,
    };
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            tenants: vec![tenant(HOT, floor), tenant(CHURN, 0)],
        },
    )
    .map_err(|e| format!("bind loopback: {e}"))?;
    Ok((db, server))
}

struct Client {
    r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            r: BufReader::new(stream.try_clone()?),
            w: BufWriter::new(stream),
        })
    }

    fn send(&mut self, line: &str) -> io::Result<String> {
        write_frame(&mut self.w, line.as_bytes())?;
        read_text(&mut self.r)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))
    }
}

/// What one connection saw.
#[derive(Default)]
struct ClientRun {
    lat_ms: Vec<f64>,
    /// Round trip minus the `wall_us` the server reported.
    overhead_us: Vec<f64>,
    wall_us_total: f64,
    /// Round trips over the counted rounds: in wall seconds, and with the
    /// server's `wall_us` in reference seconds (see `speed`).
    counted_wall_s: f64,
    counted_ref_s: f64,
    counted: u64,
    reply_bytes: u64,
    /// SQL -> raw reply digest -> (reply, how often).
    replies: BTreeMap<String, BTreeMap<u64, (String, u64)>>,
    attempted: u64,
    errors: Vec<String>,
    parse_us: Vec<f64>,
    plan_ms: Vec<f64>,
    breakers: u64,
    reused: u64,
}

/// One tenant's connection.
struct Conn {
    name: &'static str,
    client: Client,
    /// An in-process session of the same tenant, for the `opt.plan` spans.
    probe: Session,
    run: ClientRun,
}

impl Conn {
    fn open(
        db: &Arc<Database>,
        addr: SocketAddr,
        (name, token): (&'static str, &str),
    ) -> Result<Conn, String> {
        let mut client = Client::connect(addr).map_err(|e| format!("{name}: connect: {e}"))?;
        match client.send(&format!("HELLO {name} {token}")) {
            Ok(r) if r == format!("OK tenant={name}") => {}
            other => return Err(format!("{name}: handshake: {other:?}")),
        }
        let tenant = db.tenant_id(name).unwrap_or(TenantId::DEFAULT);
        Ok(Conn {
            name,
            client,
            probe: db.session_as(tenant),
            run: ClientRun::default(),
        })
    }

    /// One closed-loop request. With tracing on it is also parsed and
    /// planned in process (`sql.parse`, `opt.plan` spans) before its round
    /// trip. Returns false if the connection broke.
    fn request(
        &mut self,
        sql: String,
        request: u64,
        counted: bool,
        schema: &CatalogSchema,
        tracer: &mut Tracer,
        clock: &mut SpeedClock,
    ) -> bool {
        let (name, run) = (self.name, &mut self.run);
        tracer.enter("request", request);
        if tracer.on() {
            tracer.enter("sql.parse", request);
            let spec = parse_query(&sql, 0, schema);
            run.parse_us.push(tracer.exit() * 1e3);
            if let Ok(spec) = spec {
                tracer.enter("opt.plan", request);
                let planned = self.probe.plan_only(&spec);
                run.plan_ms.push(tracer.exit());
                if let Ok(oq) = planned {
                    let decisions = oq.plan.reuse_decisions();
                    run.breakers += decisions.len() as u64;
                    run.reused += decisions.iter().filter(|(_, c)| c.is_some()).count() as u64;
                }
            }
        }
        tracer.enter("server.roundtrip", request);
        let client = &mut self.client;
        let (reply, rt) = clock.time(|| client.send(&format!("QUERY {sql}")));
        tracer.exit();
        tracer.exit();
        run.attempted += 1;
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                run.errors.push(format!("{name}: {e}"));
                return false;
            }
        };
        let wall_us = reply
            .lines()
            .next()
            .filter(|h| h.starts_with("OK rows="))
            .and_then(|h| {
                h.split_whitespace()
                    .find_map(|w| w.strip_prefix("wall_us="))
            })
            .and_then(|w| w.parse::<f64>().ok());
        let Some(wall_us) = wall_us else {
            run.errors.push(format!(
                "{name}: {sql}: {}",
                reply.lines().next().unwrap_or("")
            ));
            return true;
        };
        let rt_us = rt.wall_s * 1e6;
        run.lat_ms.push(rt_us / 1e3);
        run.overhead_us.push(rt_us - wall_us);
        run.wall_us_total += wall_us;
        if counted {
            // Only the engine's share is scaled: the rest of a round trip
            // is mostly waiting on the loopback socket, which the host's
            // speed does not stretch.
            run.counted_wall_s += rt.wall_s;
            run.counted_ref_s += (rt_us - wall_us + wall_us * rt.scale) / 1e6;
            run.counted += 1;
        }
        run.reply_bytes += reply.len() as u64;
        let seen = run.replies.entry(sql).or_default();
        seen.entry(raw_digest(&reply))
            .or_insert_with(|| (reply, 0))
            .1 += 1;
        true
    }

    fn quit(&mut self) {
        if let Err(e) = self.client.send("QUIT") {
            self.run.errors.push(format!("{}: QUIT: {e}", self.name));
        }
    }
}

/// One measured pass.
struct Pass {
    hot: ClientRun,
    churn: ClientRun,
    tracer: Tracer,
    kernel_us_p50: f64,
}

impl Pass {
    /// Requests per reference second over the counted rounds.
    fn queries_per_s(&self) -> f64 {
        (self.hot.counted + self.churn.counted) as f64
            / (self.hot.counted_ref_s + self.churn.counted_ref_s)
    }

    /// Requests per wall second over the counted rounds.
    fn raw_queries_per_s(&self) -> f64 {
        (self.hot.counted + self.churn.counted) as f64
            / (self.hot.counted_wall_s + self.churn.counted_wall_s)
    }
}

/// Drive both connections from this thread, round after round, until
/// `seconds` have passed and the counted rounds have run. A round is the
/// hot dashboard's queries, then [`CHURN_PER_ROUND`] churn windows; the
/// request sequence, and so what the cache sees, is the same in every run.
fn serve_pass(
    db: &Arc<Database>,
    server: &Server,
    seconds: u64,
    tracer_on: bool,
    epoch: Instant,
) -> Result<Pass, String> {
    let addr = server.local_addr();
    let mut hot = Conn::open(db, addr, HOT)?;
    let mut churn = Conn::open(db, addr, CHURN)?;
    let schema = CatalogSchema(db.catalog());
    let mut tracer = Tracer::new(tracer_on, epoch);
    let mut clock = SpeedClock::new();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut request = 0u64;
    'run: for round in 0usize.. {
        let counted = round < COUNTED_ROUNDS;
        if !counted && Instant::now() >= deadline {
            break;
        }
        for sql in HOT_QUERIES {
            request += 1;
            if !hot.request(
                sql.to_string(),
                request,
                counted,
                &schema,
                &mut tracer,
                &mut clock,
            ) {
                break 'run;
            }
        }
        for k in 0..CHURN_PER_ROUND {
            request += 1;
            let sql = churn_query(round * CHURN_PER_ROUND + k);
            if !churn.request(sql, request, counted, &schema, &mut tracer, &mut clock) {
                break 'run;
            }
        }
    }
    hot.quit();
    churn.quit();
    Ok(Pass {
        hot: hot.run,
        churn: churn.run,
        tracer,
        kernel_us_p50: median(clock.kernels_s()) * 1e6,
    })
}

/// The serving invariants: the floored tenant loses nothing, per-tenant
/// counters partition the global ones, the cache ends within budget.
fn invariants(db: &Database, budget: usize) -> Vec<String> {
    let mut bad = Vec::new();
    let (Some(hot), Some(churn)) = (db.tenant_id(HOT.0), db.tenant_id(CHURN.0)) else {
        return vec!["tenants not registered".to_string()];
    };
    let (h, c, g) = (
        db.tenant_cache_stats(hot),
        db.tenant_cache_stats(churn),
        db.cache_stats(),
    );
    if h.evictions != 0 {
        bad.push(format!("floored tenant lost {} entries", h.evictions));
    }
    for (what, ht, ch, gl) in [
        ("publishes", h.publishes, c.publishes, g.publishes),
        (
            "publish_dedups",
            h.publish_dedups,
            c.publish_dedups,
            g.publish_dedups,
        ),
        ("reuses", h.reuses, c.reuses, g.reuses),
        ("evictions", h.evictions, c.evictions, g.evictions),
        (
            "entries",
            h.entries as u64,
            c.entries as u64,
            g.entries as u64,
        ),
        ("bytes", h.bytes as u64, c.bytes as u64, g.bytes as u64),
    ] {
        if ht + ch != gl {
            bad.push(format!("tenant {what} {ht} + {ch} != global {gl}"));
        }
    }
    if db.reuse_memory_bytes() > budget {
        bad.push(format!(
            "cache ended over budget: {} > {budget} bytes",
            db.reuse_memory_bytes()
        ));
    }
    bad
}

/// Fold a pass's connections into the outcome's counts and answers.
fn absorb(pass: &mut Pass, answers: &mut Answers<String>, out: &mut Outcome) {
    for c in [&mut pass.hot, &mut pass.churn] {
        out.attempted += c.attempted;
        out.failed += c.errors.len() as u64;
        out.defects.append(&mut c.errors);
        for (sql, seen) in std::mem::take(&mut c.replies) {
            for (_, (reply, n)) in seen {
                answers.record_n(sql.clone(), Answer::of_reply(&reply), n);
            }
        }
    }
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let (hot_bytes, window) = size_workload(generate(TpchConfig::new(SF, args.seed)))?;
    // Tight: the hot set with slack plus ~3 churn windows, so the churn
    // march overflows the budget while the floor, the hot working set,
    // keeps it resident. Without the floor LRU evicts hot entries: churn
    // publishes several windows between two uses of a hot entry.
    let budget = hot_bytes * 2 + window * 3;
    let floor = hot_bytes;
    let ((db, server), catalog) =
        setup(args.seed, out, |catalog, _| start(catalog, budget, floor))?;
    out.env.push(("fsync", "\"in-memory\"".to_string()));
    out.env.push(("budget_bytes", budget.to_string()));
    out.env.push(("hot_floor_bytes", floor.to_string()));
    out.env.push(("vectorize", db.vectorize().to_string()));

    let epoch = Instant::now();
    let mut answers = Answers::new();
    if let Err(e) = reset_peak_rss() {
        out.defects
            .push(format!("resetting the peak resident set: {e}"));
    }
    let mut a = serve_pass(&db, &server, args.seconds, false, epoch)?;
    out.e2e.set("peak_rss_mb", peak_rss_mb(), "MiB");
    out.defects.extend(invariants(&db, budget));
    let qps_a = a.queries_per_s();
    out.e2e.set("queries_per_s", qps_a, "1/s");
    out.detail
        .set("raw_queries_per_s", a.raw_queries_per_s(), "1/s");
    out.detail.set("kernel_us_p50", a.kernel_us_p50, "us");
    out.detail.set("hot_p50_ms", median(&a.hot.lat_ms), "ms");
    out.detail
        .set("hot_p99_ms", percentile(&a.hot.lat_ms, 99.0), "ms");
    out.detail
        .set("churn_p50_ms", median(&a.churn.lat_ms), "ms");
    out.detail
        .set("churn_p90_ms", percentile(&a.churn.lat_ms, 90.0), "ms");
    let overhead: Vec<f64> = a
        .hot
        .overhead_us
        .iter()
        .chain(&a.churn.overhead_us)
        .copied()
        .collect();
    let overhead_us_p50 = median(&overhead);
    out.detail
        .set("server.overhead_us_p50", overhead_us_p50, "us");

    // Counters of the untraced pass (it runs as many rounds as fit the
    // window, so they are not expected to repeat across runs).
    let (hot_id, churn_id) = (
        db.tenant_id(HOT.0).unwrap_or(TenantId::DEFAULT),
        db.tenant_id(CHURN.0).unwrap_or(TenantId::DEFAULT),
    );
    let counters = Counters::capture(&db.total_stats().metrics, &db.cache_stats());
    let (hot_stats, churn_stats) = (
        db.tenant_cache_stats(hot_id),
        db.tenant_cache_stats(churn_id),
    );
    let reply_kb = (a.hot.reply_bytes + a.churn.reply_bytes) as f64 / 1024.0;
    absorb(&mut a, &mut answers, out);
    drop(server);
    drop(db);

    if args.trace {
        let (db, server) = start(catalog.clone(), budget, floor)?;
        let mut b = serve_pass(&db, &server, args.seconds, true, epoch)?;
        out.defects.extend(invariants(&db, budget));
        crate::set_counter_metrics(&mut out.layer, &counters);
        out.layer
            .set("cache.hot_evictions", hot_stats.evictions as f64, "count");
        out.layer.set(
            "cache.churn_evictions",
            churn_stats.evictions as f64,
            "count",
        );
        out.layer
            .set("cache.hot_hit_ratio", hot_stats.hit_ratio(), "ratio");
        out.layer.set("server.reply_kb_total", reply_kb, "KiB");
        out.layer
            .set("server.overhead_us_p50", overhead_us_p50, "us");
        let plan: Vec<f64> = b
            .hot
            .plan_ms
            .iter()
            .chain(&b.churn.plan_ms)
            .copied()
            .collect();
        out.layer.set("opt.plan_ms_p50", median(&plan), "ms");
        out.layer
            .set("opt.plan_ms_total", plan.iter().sum::<f64>(), "ms");
        out.layer.set(
            "opt.reuse_decision_ratio",
            ratio(
                b.hot.reused + b.churn.reused,
                b.hot.breakers + b.churn.breakers,
            ),
            "ratio",
        );
        out.layer.set(
            "exec.self_ms_total",
            (b.hot.wall_us_total + b.churn.wall_us_total) / 1e3,
            "ms",
        );
        out.layer.set(
            "trace.overhead_pct",
            (qps_a / b.queries_per_s() - 1.0) * 100.0,
            "%",
        );
        for (name, unit) in [
            ("durability.disk_mb", "MiB"),
            ("durability.persisted_entries", "count"),
            ("durability.rehydrated_entries", "count"),
        ] {
            out.layer.set(name, 0.0, unit);
        }
        let parse: Vec<f64> = b
            .hot
            .parse_us
            .iter()
            .chain(&b.churn.parse_us)
            .copied()
            .collect();
        out.layer.set("sql.parse_us_p50", median(&parse), "us");
        let tracer = std::mem::take(&mut b.tracer);
        for (name, ms) in tracer.self_ms() {
            out.detail.set(&format!("self_ms.{name}"), ms, "ms");
        }
        out.spans = Some(tracer);
        absorb(&mut b, &mut answers, out);
        drop(server);
        drop(db);
    }

    // Oracle: every distinct reply against a NoReuse engine over the same data.
    let oracle = Database::builder(catalog)
        .strategy(EngineStrategy::NoReuse)
        .parallelism(parallelism())
        .build();
    let mut session = oracle.session();
    let (wrong, why) = answers.verify(|sql| {
        let q = parse_query(sql, 0, &CatalogSchema(oracle.catalog())).map_err(|e| e.render(sql))?;
        session
            .execute(&q)
            .map(|r| Answer::of_rows(&r.rows))
            .map_err(|e| e.to_string())
    });
    out.failed += wrong;
    out.defects.extend(why);
    Ok(())
}
