//! Per-layer metrics of the traced run. Each is measured from outside
//! the program: by timing calls into a layer's public function
//! in-process on the run's own inputs, from response fields, or from
//! the difference of the server's `metrics` scrape across the timed
//! phase. Layers a workload does not exercise read 0.

use crate::inputs::{self, Item, Rng, Variant};
use crate::sut::Outcome;
use crate::trace::Tracer;
use crate::workloads::{copy_dir, Prepared, Send, Timed, CLI_KS, DEADLINE_MS};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;
use tt_core::cost::Cost;
use tt_core::instance::TtInstance;
use tt_core::solver::checkpoint::Checkpoint;
use tt_core::solver::{select, sequential, supervise, Budget, SuperviseOptions};
use tt_serve::journal::{self, Journal, JournalEntry};
use tt_serve::proto::{Request, Response, SolveResult};

/// Span names whose count and self time are reported.
pub const SPANS: [&str; 13] = [
    "harness.generate",
    "harness.oracle",
    "harness.populate",
    "harness.setup",
    "harness.timed",
    "harness.layers",
    "op",
    "ttsolve.exec",
    "client.connect",
    "client.request",
    "ttserve.start",
    "ttserve.scrape",
    "ttserve.drain",
];

/// Every per-layer metric a traced run reports, with its unit; the
/// count and self time of each of [`SPANS`] come on top.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("tt-core.io.parse_us", "us"),
    ("tt-core.seq.candidates", "count"),
    ("tt-core.seq.ns_per_candidate", "ns"),
    ("tt-core.seq.extract_us", "us"),
    ("tt-core.seq.table_mib", "MiB-computed"),
    ("tt-core.supervise.engine_share.ccc", "ratio"),
    ("tt-core.supervise.engine_share.hyper", "ratio"),
    ("tt-core.supervise.engine_share.rayon", "ratio"),
    ("tt-core.supervise.engine_share.seq", "ratio"),
    ("tt-core.supervise.engine_share.other", "ratio"),
    ("tt-core.supervise.default_over_seq", "ratio"),
    ("tt-core.supervise.degraded", "count"),
    ("tt-core.select.probe_us", "us"),
    ("tt-parallel.machine_steps", "count"),
    ("tt-parallel.rayon.efficiency_2t", "ratio"),
    ("tt-serve.client.connect_us", "us"),
    ("tt-serve.client.overhead_ms", "ms"),
    ("tt-serve.server.request_us", "us"),
    ("tt-serve.server.solve_us", "us"),
    ("tt-serve.proto.decode_us", "us"),
    ("tt-serve.proto.encode_us", "us"),
    ("tt-serve.proto.request_bytes", "bytes"),
    ("tt-serve.journal.append_us.admitted", "us"),
    ("tt-serve.journal.append_us.started", "us"),
    ("tt-serve.journal.append_us.checkpoint", "us"),
    ("tt-serve.journal.append_us.completed", "us"),
    ("tt-serve.journal.appends_per_keyed", "count"),
    ("tt-serve.journal.rotations", "count"),
    ("tt-serve.journal.replay_ms", "ms"),
    ("tt-cache.canon.canonicalize_us", "us"),
    ("tt-cache.store.lookup_us", "us"),
    ("tt-cache.store.hit_ratio", "ratio"),
    ("tt-cache.store.insert_us", "us"),
    ("tt-cache.store.open_ms", "ms"),
    ("harness.calib_ms", "ms"),
    ("harness.cpu_steal_pct", "%"),
    ("harness.trace_overhead_ratio", "ratio"),
];

/// The unit of a per-layer metric.
pub fn unit(name: &str) -> &'static str {
    if let Some(span) = name.strip_prefix("span.") {
        return if span.ends_with(".count") {
            "count"
        } else {
            "ms"
        };
    }
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("per-layer metric {name} is missing from PER_LAYER"))
}

/// Every per-layer metric name, in the order of [`PER_LAYER`] then the
/// span metrics.
pub fn names() -> Vec<String> {
    let mut v: Vec<String> = PER_LAYER.iter().map(|(n, _)| (*n).to_string()).collect();
    for s in SPANS {
        v.push(format!("span.{s}.count"));
        v.push(format!("span.{s}.self_ms"));
    }
    v
}

/// Calls into cheap layers are timed over at most this many inputs.
const CHEAP_INPUTS: usize = 200;

/// The collected metrics: name → (value, unit).
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn mean(total: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// The first item of every class (the expensive probes run on these).
fn one_per_class(p: &Prepared) -> Vec<&Item> {
    let mut seen = BTreeMap::new();
    for it in &p.items {
        seen.entry(it.class.as_str()).or_insert(it);
    }
    seen.into_values().collect()
}

/// Inputs for the per-call timings: up to [`CHEAP_INPUTS`] of the run's
/// instances, or one per class where instances are large (k > 12),
/// since canonicalization and the selection probe grow with `2^k`.
fn cheap_inputs(p: &Prepared) -> Vec<&Item> {
    if p.items.iter().any(|i| i.k > 12) {
        one_per_class(p)
    } else {
        p.items.iter().take(CHEAP_INPUTS).collect()
    }
}

/// Every per-layer metric for one traced run.
pub fn measure(p: &Prepared, timed: &Timed, tracer: &Tracer, seed: u64) -> Result<Metrics, String> {
    let phase = tracer.open("harness.layers", 0, 0);
    let parent = phase.id;
    let mut m = Metrics::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), (v, unit(name)));
    };
    let sample = one_per_class(p);
    let cheap = cheap_inputs(p);

    // tt-core: parse.
    let mut total = 0.0;
    for it in &cheap {
        let (parsed, took) = tracer.time("tt-core.io.from_text", parent, 0, || {
            tt_core::io::from_text(&it.text)
        });
        parsed.map_err(|e| format!("generated text does not parse: {e}"))?;
        total += us(took);
    }
    put("tt-core.io.parse_us", mean(total, cheap.len()));

    // tt-core: the sequential kernel on one instance per class.
    let (mut candidates, mut dp_ns, mut extract_us) = (0u64, 0.0, 0.0);
    let mut seq_wall = Vec::new();
    for it in &sample {
        let (sol, took) = tracer.time("tt-core.seq.solve", parent, 0, || {
            sequential::solve(&it.inst)
        });
        let (_, ex) = tracer.time("tt-core.seq.extract_tree", parent, 0, || {
            sequential::extract_tree(&it.inst, &sol.tables, it.inst.universe())
        });
        candidates += sol.stats.candidates;
        dp_ns += took.saturating_sub(ex).as_secs_f64() * 1e9;
        extract_us += us(ex);
        seq_wall.push(took);
    }
    put("tt-core.seq.candidates", candidates as f64);
    put(
        "tt-core.seq.ns_per_candidate",
        mean(dp_ns, candidates as usize),
    );
    put("tt-core.seq.extract_us", mean(extract_us, sample.len()));
    let cell = std::mem::size_of::<Cost>() + std::mem::size_of::<Option<u16>>();
    let max_k = p.items.iter().map(|i| i.k).max().unwrap_or(0);
    put(
        "tt-core.seq.table_mib",
        ((1u64 << max_k) * cell as u64) as f64 / f64::from(1u32 << 20),
    );

    // tt-core: engine selection as served, from the response fields.
    let engines: Vec<&str> = timed
        .samples
        .iter()
        .filter_map(|s| s.engine.as_deref())
        .collect();
    for name in ["ccc", "hyper", "rayon", "seq"] {
        let n = engines.iter().filter(|e| **e == name).count();
        put(
            &format!("tt-core.supervise.engine_share.{name}"),
            mean(n as f64, engines.len()),
        );
    }
    let other = engines
        .iter()
        .filter(|e| !["ccc", "hyper", "rayon", "seq"].contains(e))
        .count();
    put(
        "tt-core.supervise.engine_share.other",
        mean(other as f64, engines.len()),
    );
    let degraded = timed
        .samples
        .iter()
        .filter(|s| s.outcome == Outcome::Degraded)
        .count();
    put("tt-core.supervise.degraded", degraded as f64);

    // tt-core + tt-parallel: the default chain in-process against seq on
    // the same instances, under the serve workloads' deadline.
    let budget = Budget::with_deadline(Duration::from_millis(DEADLINE_MS));
    let (mut sup_s, mut machine_steps) = (0.0, 0u64);
    for it in &sample {
        let chain = tt_parallel::orchestrate::default_chain(&it.inst);
        let (rep, took) = tracer.time("tt-core.supervise", parent, 0, || {
            supervise::supervise(&it.inst, &chain, &budget, &SuperviseOptions::default())
        });
        sup_s += took.as_secs_f64();
        if rep.report.outcome.is_complete() {
            machine_steps += rep.report.work.machine_steps;
        }
    }
    let seq_s: f64 = seq_wall.iter().map(Duration::as_secs_f64).sum();
    put(
        "tt-core.supervise.default_over_seq",
        if seq_s > 0.0 { sup_s / seq_s } else { 0.0 },
    );
    put("tt-parallel.machine_steps", machine_steps as f64);

    let mut total = 0.0;
    for it in &cheap {
        let (_, took) = tracer.time("tt-core.select.auto_select", parent, 0, || {
            select::auto_select(&it.inst)
        });
        total += us(took);
    }
    put("tt-core.select.probe_us", mean(total, cheap.len()));

    // tt-parallel: rayon against seq on cli-solve-sized instances.
    let mut rng = Rng::new(seed ^ 0xEFF1_C1E7);
    let (mut seq_t, mut par_t) = (0.0, 0.0);
    for domain in inputs::DOMAINS {
        let inst = domain.generate(CLI_KS[CLI_KS.len() - 1], rng.next_u64());
        let (a, ts) = tracer.time("tt-core.seq.solve_tables", parent, 0, || {
            sequential::solve_tables(&inst)
        });
        let (b, tp) = tracer.time("tt-parallel.rayon.solve_tables", parent, 0, || {
            tt_parallel::rayon_solver::solve_tables(&inst)
        });
        if a.cost[inst.universe().index()] != b.cost[inst.universe().index()] {
            return Err("rayon and seq disagree on the optimum".to_string());
        }
        seq_t += ts.as_secs_f64();
        par_t += tp.as_secs_f64();
    }
    let threads = std::thread::available_parallelism().map_or(1, usize::from) as f64;
    put("tt-parallel.rayon.efficiency_2t", seq_t / (threads * par_t));

    // tt-serve: the client and the server, from the timed phase.
    let connects: Vec<Duration> = timed.samples.iter().filter_map(|s| s.connect).collect();
    put(
        "tt-serve.client.connect_us",
        mean(connects.iter().map(|d| us(*d)).sum(), connects.len()),
    );
    let scraped_mean_us = |name: &str| {
        let sum = timed
            .scrape
            .get(&format!("{name}_sum"))
            .copied()
            .unwrap_or(0.0);
        let n = timed
            .scrape
            .get(&format!("{name}_count"))
            .copied()
            .unwrap_or(0.0);
        if n > 0.0 {
            sum / n / 1e3
        } else {
            0.0
        }
    };
    let request_us = scraped_mean_us("ttserve_request_nanos");
    put("tt-serve.server.request_us", request_us);
    put(
        "tt-serve.server.solve_us",
        scraped_mean_us("ttserve_solve_nanos"),
    );
    let round_trips: Vec<f64> = timed
        .samples
        .iter()
        .filter(|_| !timed.scrape.is_empty())
        .map(|s| us(s.latency.saturating_sub(s.connect.unwrap_or_default())))
        .collect();
    put(
        "tt-serve.client.overhead_ms",
        if round_trips.is_empty() {
            0.0
        } else {
            (mean(round_trips.iter().sum(), round_trips.len()) - request_us) / 1e3
        },
    );

    // tt-serve: the protocol codec on the run's own requests.
    let requests: Vec<Request> = match p.ops.first().map(|o| &o.send) {
        Some(Send::Serve(_)) => p
            .ops
            .iter()
            .take(CHEAP_INPUTS)
            .filter_map(|o| match &o.send {
                Send::Serve(r) => Some(r.clone()),
                Send::File(_) => None,
            })
            .collect(),
        _ => cheap
            .iter()
            .map(|it| crate::sut::solve_request(&it.text, None, Some(DEADLINE_MS), None))
            .collect(),
    };
    let (mut enc, mut dec, mut bytes) = (0.0, 0.0, 0usize);
    for r in &requests {
        let (payload, te) = tracer.time("tt-serve.proto.encode", parent, 0, || r.encode());
        let (back, td) = tracer.time("tt-serve.proto.decode", parent, 0, || {
            Request::decode(&payload)
        });
        if back.as_ref() != Ok(r) {
            return Err("a request does not survive encode and decode".to_string());
        }
        enc += us(te);
        dec += us(td);
        bytes += payload.len();
    }
    put("tt-serve.proto.encode_us", mean(enc, requests.len()));
    put("tt-serve.proto.decode_us", mean(dec, requests.len()));
    put(
        "tt-serve.proto.request_bytes",
        mean(bytes as f64, requests.len()),
    );

    // tt-serve: the journal.
    let bench_dir = p.work.join("journal-bench");
    for (kind, v) in journal_appends(&bench_dir, seed, tracer, parent)? {
        put(&format!("tt-serve.journal.append_us.{kind}"), v);
    }
    let keyed_new = timed.samples.iter().filter(|s| s.keyed_new).count();
    let appends = timed
        .scrape
        .get("ttserve_journal_appends_total")
        .copied()
        .unwrap_or(0.0);
    put(
        "tt-serve.journal.appends_per_keyed",
        mean(appends, keyed_new),
    );
    put(
        "tt-serve.journal.rotations",
        timed
            .scrape
            .get("ttserve_journal_rotations_total")
            .copied()
            .unwrap_or(0.0),
    );
    let journal_dir = match &p.state {
        Some(s) => copy_dir(&s.join("journal"), &p.work.join("journal-replay"))?,
        None => bench_dir,
    };
    let replay = median_of(5, || {
        tracer
            .time("tt-serve.journal.open", parent, 0, || {
                Journal::open(&journal_dir)
            })
            .1
    });
    put("tt-serve.journal.replay_ms", replay * 1e3);

    // tt-cache.
    let mut total = 0.0;
    for it in &cheap {
        let (_, took) = tracer.time("tt-cache.canonicalize", parent, 0, || {
            tt_cache::canonicalize(&it.inst)
        });
        total += us(took);
    }
    put("tt-cache.canon.canonicalize_us", mean(total, cheap.len()));
    let cache_items = cheap;
    let cache_dir = p.work.join("cache-bench");
    let (insert_us, lookup_us) = cache_probe(&cache_dir, &cache_items, seed, tracer, parent)?;
    put("tt-cache.store.insert_us", insert_us);
    put("tt-cache.store.lookup_us", lookup_us);
    let hits = timed.scrape.get("ttcache_hits").copied().unwrap_or(0.0);
    let misses = timed.scrape.get("ttcache_misses").copied().unwrap_or(0.0);
    put(
        "tt-cache.store.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    let open_dir = match &p.state {
        Some(s) => copy_dir(&s.join("cache"), &p.work.join("cache-open"))?,
        None => cache_dir,
    };
    let open = median_of(5, || {
        tracer
            .time("tt-cache.store.open", parent, 0, || {
                tt_cache::SolutionCache::open(&open_dir, 1024)
            })
            .1
    });
    put("tt-cache.store.open_ms", open * 1e3);

    drop(phase);
    Ok(m)
}

/// Median wall time in seconds of `n` calls.
fn median_of(n: usize, mut f: impl FnMut() -> Duration) -> f64 {
    let v: Vec<f64> = (0..n).map(|_| f().as_secs_f64()).collect();
    crate::stats::median(&v).unwrap_or(0.0)
}

/// Journals the full lifecycle of keyed k = 8 solves on a scratch
/// journal, as the server does (admitted, started, one checkpoint per
/// completed level, completed — each fsync'd), and returns the mean
/// append time per entry kind in microseconds.
fn journal_appends(
    dir: &Path,
    seed: u64,
    tracer: &Tracer,
    parent: u64,
) -> Result<Vec<(&'static str, f64)>, String> {
    let (mut j, _) = Journal::open(dir).map_err(|e| format!("scratch journal: {e}"))?;
    let mut rng = Rng::new(seed ^ 0x0A11_D1A1);
    let mut sums: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    let mut append = |kind: &'static str, e: JournalEntry| -> Result<(), String> {
        let (r, took) = tracer.time("tt-serve.journal.append", parent, 0, || j.append(&e));
        r.map_err(|e| format!("journal append: {e}"))?;
        let s = sums.entry(kind).or_default();
        s.0 += us(took);
        s.1 += 1;
        Ok(())
    };
    for (n, domain) in inputs::DOMAINS.iter().cycle().take(12).enumerate() {
        let inst = domain.generate(crate::workloads::REPEAT_K, rng.next_u64());
        let key = format!("bench-{n}");
        let request = crate::sut::solve_request(
            &tt_core::io::to_text(&inst),
            Some("seq"),
            None,
            Some(key.clone()),
        );
        append(
            "admitted",
            JournalEntry::Admitted {
                key: key.clone(),
                request: request.encode(),
            },
        )?;
        append("started", JournalEntry::Started { key: key.clone() })?;
        let tables = sequential::solve_tables(&inst);
        let opt = tables.cost[inst.universe().index()];
        for level in 1..=inst.k() {
            let ck = Checkpoint::capture(&inst, level, &tables.cost, &tables.best, opt, Cost::ZERO);
            append(
                "checkpoint",
                JournalEntry::Checkpoint {
                    key: key.clone(),
                    text: ck.to_text(),
                },
            )?;
        }
        let result = SolveResult {
            id: None,
            engine: "seq".to_string(),
            complete: true,
            cost: Some(opt.0),
            upper: None,
            lower: None,
            reason: None,
            recovered: false,
            cached: false,
            failovers: 0,
            retries: 0,
            wall_us: 1,
        };
        let hash = journal::result_hash(&result);
        let response = Response::Solved(result).encode();
        append(
            "completed",
            JournalEntry::Completed {
                key,
                hash,
                response,
            },
        )?;
    }
    Ok(sums
        .into_iter()
        .map(|(k, (t, n))| (k, mean(t, n)))
        .collect())
}

/// Inserts each item's `seq` report into a disk-backed cache, then
/// looks up a relabelled, rescaled or reordered variant of each (an
/// exact canonical hit). Returns the mean insert and lookup times in
/// microseconds.
fn cache_probe(
    dir: &Path,
    items: &[&Item],
    seed: u64,
    tracer: &Tracer,
    parent: u64,
) -> Result<(f64, f64), String> {
    let seq = tt_core::solver::lookup("seq").ok_or("no seq engine registered")?;
    let mut cache =
        tt_cache::SolutionCache::open(dir, 1024).map_err(|e| format!("scratch cache: {e}"))?;
    let mut rng = Rng::new(seed ^ 0xCAC4E);
    let (mut ins, mut look) = (0.0, 0.0);
    for it in items {
        let report = seq.solve(&it.inst);
        let ((), t) = tracer.time("tt-cache.store.insert", parent, 0, || {
            cache.insert_report(&it.inst, &report)
        });
        ins += us(t);
        let v = Variant::draw(&mut rng);
        let variant: TtInstance = inputs::apply(&it.inst, v, &mut rng);
        let (hit, t) = tracer.time("tt-cache.store.lookup", parent, 0, || {
            cache.lookup_report(&variant)
        });
        if let Some(h) = hit {
            if h.cost.0 != report.cost.0 * v.cost_factor() {
                return Err("a cache hit translated the cost wrongly".to_string());
            }
        }
        look += us(t);
    }
    Ok((mean(ins, items.len()), mean(look, items.len())))
}
