//! The three workloads. Each run sends a fixed, seeded sequence of
//! operations (bounded by count, never by wall time), checks every
//! answer against the in-process reference optimum, and times only the
//! system under test.

use crate::inputs::{self, Item, Rng, Variant};
use crate::sut::{self, check_response, check_ttsolve, Outcome, Server, Ttsolve};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tt_core::instance::TtInstance;
use tt_serve::proto::{Request, Response};
use tt_serve::Client;
use tt_workloads::catalog::Domain;

/// The client's latency limit on served solves. It sits at least 5×
/// away from every serve-cold class on the benchmark machine, so the
/// failed set repeats: the slowest completing class (`hyper` at
/// k = 10) takes up to ~50 ms, and a `ccc` solve at k = 8 takes 1.7 s
/// or more. `ccc` checks its deadline between levels, so a degraded
/// answer comes back when the level running at the deadline ends,
/// 0.27–0.5 s after the request.
pub const DEADLINE_MS: u64 = 250;
/// Starts of the system under test timed for `setup_s`, half before
/// and half after the timed phase, so that they span the run rather than
/// one moment of it; the median is reported.
pub const SETUP_STARTS: usize = 21;

/// cli-solve sizes: big enough that the dense DP kernel dominates the
/// process start-up (about 1.2 ms), small enough that a run holds
/// hundreds of instances, so that the figures do not hang on a few of
/// them, and that the tables (1.5 MiB at k = 17) stay within a core's
/// L2 cache. A medical or faults instance costs about what a random one
/// a size up does; the classes run from ~5 ms (random, k = 14) to
/// ~75 ms (faults, k = 17).
pub const CLI_KS: [usize; 4] = [14, 15, 16, 17];
/// serve-cold sizes, with the engine that heads the default chain and
/// its time alone: k = 6 `ccc`, ~3 ms; k = 8 `ccc`, which runs into the
/// deadline and degrades; k = 9–10 `hyper`, 15–50 ms; k = 16 `rayon`,
/// 20–36 ms. As many fast as degrading classes put the median in the
/// middle of the k = 9/10/16 group and the 90th percentile inside the
/// degraded band. Sizes whose solve lies within a few times any such
/// deadline (`hyper` at k = 11–14, `ccc` on the k = 7 shapes that take
/// seconds) are left out, so that machine speed never decides whether
/// an answer degrades.
pub const COLD_KS: [usize; 5] = [6, 8, 9, 10, 16];
/// serve-repeat instance size (pool, journaled and new keyed requests).
pub const REPEAT_K: usize = 8;
/// Solved instances the serve-repeat state starts with, per domain.
pub const POOL_PER_DOMAIN: usize = 100;
/// Journaled keys the serve-repeat state starts with, per domain.
pub const JOURNALED_PER_DOMAIN: usize = 100;

/// The workloads, by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CliSolve,
    ServeCold,
    ServeRepeat,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CliSolve,
        Workload::ServeCold,
        Workload::ServeRepeat,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CliSolve => "cli-solve",
            Workload::ServeCold => "serve-cold",
            Workload::ServeRepeat => "serve-repeat",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Closed-loop clients. serve-repeat keeps the two persistent
    /// connections the server is built for; serve-cold sends one
    /// request at a time, so that no answer is timed while another
    /// client's solve holds a core (`rayon` uses both).
    pub fn clients(self) -> usize {
        match self {
            Workload::CliSolve | Workload::ServeCold => 1,
            Workload::ServeRepeat => 2,
        }
    }

    /// Operations per class (or per serve-repeat mix unit of ten) for a
    /// run of `seconds`: sized from the baseline's cost so that a run
    /// measures about that long, with a floor of at least 100
    /// operations so that ten samples lie beyond the 90th percentile.
    pub fn per_class(self, seconds: u64) -> usize {
        // Baseline seconds of one round: every class once (cli-solve,
        // serve-cold) or one mix unit (serve-repeat).
        let (round_s, floor) = match self {
            Workload::CliSolve => (0.29, 9),
            Workload::ServeCold => (1.57, 7),
            Workload::ServeRepeat => (0.45, 10),
        };
        ((seconds as f64 / round_s).round() as usize).max(floor)
    }
}

/// What an operation sends.
#[derive(Clone, Debug)]
pub enum Send {
    /// `ttsolve <file>`.
    File(PathBuf),
    /// One request to the server.
    Serve(Request),
}

/// One operation of the fixed sequence, with the answer it must get.
#[derive(Clone, Debug)]
pub struct Op {
    pub class: String,
    pub send: Send,
    pub expect: u64,
    /// A retry of a journaled key: the answer must be the journaled one.
    pub must_recover: bool,
}

/// One measured operation.
#[derive(Clone, Debug)]
pub struct Sample {
    pub class: String,
    pub latency: Duration,
    pub connect: Option<Duration>,
    pub outcome: Outcome,
    pub engine: Option<String>,
    pub keyed_new: bool,
}

/// The timed phase of one run.
#[derive(Debug, Default)]
pub struct Timed {
    pub samples: Vec<Sample>,
    pub wall: Duration,
    pub peak_rss_kib: u64,
    /// Server metrics after the phase minus before it.
    pub scrape: BTreeMap<String, f64>,
}

/// A workload's inputs, references and state, made before any timing.
pub struct Prepared {
    pub workload: Workload,
    pub ops: Vec<Op>,
    /// Every distinct instance the run uses, for the layer probes.
    pub items: Vec<Item>,
    /// The start-up probe: what is sent, and the answer it must get.
    pub probe: Op,
    /// Sent to a freshly started server before its timed phase, and not
    /// timed: the server's lazy set-up (first allocations, code paths
    /// taken for the first time) is paid once, not by the first timed
    /// requests.
    pub warmup: Vec<Op>,
    /// serve-repeat: the populated journal and cache directories.
    pub state: Option<PathBuf>,
    pub work: PathBuf,
    pub populate: Option<Duration>,
}

/// Per-run context.
pub struct Ctx<'a> {
    pub seed: u64,
    pub seconds: u64,
    pub bins: &'a Path,
    pub work: &'a Path,
    pub tracer: &'a Tracer,
}

impl Ctx<'_> {
    pub fn ttserve(&self) -> PathBuf {
        self.bins.join("ttserve")
    }
    pub fn ttsolve(&self) -> Ttsolve {
        Ttsolve {
            exe: self.bins.join("ttsolve"),
        }
    }
}

fn oracle(ctx: &Ctx<'_>, items: &[Item]) -> Vec<u64> {
    let refs: Vec<&TtInstance> = items.iter().map(|i| &i.inst).collect();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let _span = ctx.tracer.open("harness.oracle", 0, 0);
    inputs::optima(&refs, threads)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Generates the inputs, computes every reference answer, and (for
/// serve-repeat) populates the state the server starts from.
pub fn prepare(w: Workload, ctx: &Ctx<'_>) -> Result<Prepared, String> {
    let per = w.per_class(ctx.seconds);
    let mut rng = Rng::new(ctx.seed ^ 0x0005_EED0_FE2E);
    let probe_item = Item::new(Domain::Random, 4, rng.next_u64());
    match w {
        Workload::CliSolve => {
            // Every instance is solved twice, at two places in the
            // sequence: each `ttsolve` process starts cold, and the
            // oracle's in-process solves cost half as much.
            let items = {
                let _g = ctx.tracer.open("harness.generate", 0, 0);
                inputs::class_mix(rng.next_u64(), &CLI_KS, per.div_ceil(2))
            };
            let mut all = items.clone();
            all.push(probe_item.clone());
            let expect = oracle(ctx, &all);
            let mut ops = Vec::new();
            for (i, (item, &e)) in all.iter().zip(&expect).enumerate() {
                let path = ctx.work.join(format!("cli-{i:04}.tt"));
                write_file(&path, &item.text)?;
                ops.push(Op {
                    class: item.class.clone(),
                    send: Send::File(path),
                    expect: e,
                    must_recover: false,
                });
            }
            let probe = ops.pop().expect("the probe was pushed last");
            let mut again = ops.clone();
            rng.shuffle(&mut again);
            ops.extend(again);
            Ok(Prepared {
                workload: w,
                ops,
                items,
                probe,
                warmup: Vec::new(),
                state: None,
                work: ctx.work.to_path_buf(),
                populate: None,
            })
        }
        Workload::ServeCold => {
            // Sent in the mix's shuffled order, so that every class
            // meets the machine's slower and faster stretches alike.
            let (items, warm) = {
                let _g = ctx.tracer.open("harness.generate", 0, 0);
                (
                    inputs::class_mix(rng.next_u64(), &COLD_KS, per),
                    inputs::class_mix(rng.next_u64(), &COLD_KS, 1),
                )
            };
            let mut all = items.clone();
            all.extend(warm);
            all.push(probe_item);
            let expect = oracle(ctx, &all);
            let mut ops: Vec<Op> = all
                .iter()
                .zip(&expect)
                .map(|(item, &e)| Op {
                    class: item.class.clone(),
                    // Unique, unkeyed, and no `solver`: the server's own
                    // engine selection decides.
                    send: Send::Serve(sut::solve_request(
                        &item.text,
                        None,
                        Some(DEADLINE_MS),
                        None,
                    )),
                    expect: e,
                    must_recover: false,
                })
                .collect();
            let probe = ops.pop().expect("the probe was pushed last");
            // One request of every class, on instances of its own.
            let warmup = ops.split_off(items.len());
            Ok(Prepared {
                workload: w,
                ops,
                items,
                probe,
                warmup,
                state: None,
                work: ctx.work.to_path_buf(),
                populate: None,
            })
        }
        Workload::ServeRepeat => prepare_repeat(ctx, per, &mut rng),
    }
}

/// serve-repeat: a pool of solved instances and a set of journaled
/// keys are populated through the server itself, then the timed mix is
/// ~70% canonical variants of pool instances (cache hits), ~10%
/// retries of journaled keys (recovered) and ~20% new keyed requests.
fn prepare_repeat(ctx: &Ctx<'_>, units: usize, rng: &mut Rng) -> Result<Prepared, String> {
    let (pool, journaled, fresh) = {
        let _g = ctx.tracer.open("harness.generate", 0, 0);
        (
            inputs::class_mix(rng.next_u64(), &[REPEAT_K], POOL_PER_DOMAIN),
            inputs::class_mix(rng.next_u64(), &[REPEAT_K], JOURNALED_PER_DOMAIN),
            inputs::class_mix(rng.next_u64(), &[REPEAT_K], (2 * units).div_ceil(3)),
        )
    };
    let fresh = &fresh[..2 * units];
    let mut all: Vec<Item> = pool.clone();
    all.extend(journaled.iter().cloned());
    all.extend(fresh.iter().cloned());
    let expect = oracle(ctx, &all);
    let (pool_opt, rest) = expect.split_at(pool.len());
    let (journaled_opt, fresh_opt) = rest.split_at(journaled.len());

    // Populate: unkeyed pool solves fill the cache, keyed solves fill
    // the journal (and the cache). Pinned to `seq` so population is fast.
    let state = ctx.work.join("state0");
    let populate_start = Instant::now();
    {
        let _g = ctx.tracer.open("harness.populate", 0, 0);
        let server = Server::start(&ctx.ttserve(), &state_args(&state))?;
        let mut fill: Vec<(Request, u64)> = pool
            .iter()
            .zip(pool_opt)
            .map(|(it, &e)| (sut::solve_request(&it.text, Some("seq"), None, None), e))
            .collect();
        for (i, (it, &e)) in journaled.iter().zip(journaled_opt).enumerate() {
            fill.push((
                sut::solve_request(&it.text, Some("seq"), None, Some(journal_key(ctx.seed, i))),
                e,
            ));
        }
        // Every populated answer equals its optimum, so the cost each
        // key journaled is its optimum.
        let answers = fan_out(&fill, Workload::ServeRepeat.clients(), |(req, e)| {
            check_response(&sut::fresh_request(server.addr, req).0, *e)
        });
        if let Some((i, bad)) = answers.iter().enumerate().find(|(_, o)| !o.is_correct()) {
            return Err(format!("populating request {i} failed: {bad:?}"));
        }
        server.stop()?;
    }
    let populate = populate_start.elapsed();

    let mut ops = Vec::new();
    let mut retry_order: Vec<usize> = (0..journaled.len()).collect();
    rng.shuffle(&mut retry_order);
    if units > retry_order.len() {
        return Err("more retries than journaled keys".to_string());
    }
    let hit = |rng: &mut Rng| {
        let b = rng.below(pool.len());
        let v = Variant::draw(rng);
        let inst = inputs::apply(&pool[b].inst, v, rng);
        Op {
            class: "hit".to_string(),
            // Variants pin `seq` as well: a canonical miss then costs a
            // k = 8 seq solve, not a machine simulator running into the
            // deadline (serve-cold covers the default chain).
            send: Send::Serve(sut::solve_request(
                &tt_core::io::to_text(&inst),
                Some("seq"),
                Some(DEADLINE_MS),
                None,
            )),
            expect: pool_opt[b] * v.cost_factor(),
            must_recover: false,
        }
    };
    for (u, &j) in retry_order.iter().take(units).enumerate() {
        for _ in 0..7 {
            ops.push(hit(rng));
        }
        ops.push(Op {
            class: "recovered".to_string(),
            send: Send::Serve(sut::solve_request(
                &journaled[j].text,
                Some("seq"),
                Some(DEADLINE_MS),
                Some(journal_key(ctx.seed, j)),
            )),
            expect: journaled_opt[j],
            must_recover: true,
        });
        for n in [2 * u, 2 * u + 1] {
            ops.push(Op {
                class: "new-keyed".to_string(),
                // New keyed requests pin `seq`, so the journal's appends,
                // not engine choice, set this class's time.
                send: Send::Serve(sut::solve_request(
                    &fresh[n].text,
                    Some("seq"),
                    Some(DEADLINE_MS),
                    Some(format!("new-{}-{n}", ctx.seed)),
                )),
                expect: fresh_opt[n],
                must_recover: false,
            });
        }
    }
    rng.shuffle(&mut ops);
    // The start-up probe and the warm-up are pool instances as they
    // were populated: cache hits that leave the state as it was.
    let as_populated = |b: usize| Op {
        class: "probe".to_string(),
        send: Send::Serve(sut::solve_request(
            &pool[b].text,
            Some("seq"),
            Some(DEADLINE_MS),
            None,
        )),
        expect: pool_opt[b],
        must_recover: false,
    };
    let probe = as_populated(rng.below(pool.len()));
    let warmup = (0..10)
        .map(|_| as_populated(rng.below(pool.len())))
        .collect();
    Ok(Prepared {
        workload: Workload::ServeRepeat,
        ops,
        items: all,
        probe,
        warmup,
        state: Some(state),
        work: ctx.work.to_path_buf(),
        populate: Some(populate),
    })
}

fn journal_key(seed: u64, i: usize) -> String {
    format!("journaled-{seed}-{i}")
}

fn state_args(state: &Path) -> Vec<String> {
    vec![
        "--journal".to_string(),
        state.join("journal").display().to_string(),
        "--cache".to_string(),
        state.join("cache").display().to_string(),
    ]
}

/// Runs `f` over `items` on `threads` threads; results keep the order.
fn fan_out<T: Sync, R: std::marker::Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<R>>> = Mutex::new(items.iter().map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                out.lock().expect("result slots poisoned")[i] = Some(r);
            });
        }
    });
    out.into_inner()
        .expect("result slots poisoned")
        .into_iter()
        .map(|r| r.expect("every item ran"))
        .collect()
}

/// Copies the files of directory `from` into `to` (created if needed).
pub fn copy_dir(from: &Path, to: &Path) -> Result<PathBuf, String> {
    let err = |e: std::io::Error| format!("cannot copy {}: {e}", from.display());
    std::fs::create_dir_all(to).map_err(err)?;
    for e in std::fs::read_dir(from).map_err(err)? {
        let e = e.map_err(err)?;
        std::fs::copy(e.path(), to.join(e.file_name())).map_err(err)?;
    }
    Ok(to.to_path_buf())
}

fn server_args(p: &Prepared, state: Option<&Path>) -> Vec<String> {
    match (p.workload, state) {
        (Workload::ServeRepeat, Some(s)) => state_args(s),
        _ => Vec::new(),
    }
}

/// `starts` samples of `setup_s`: launch of the system under test until
/// its first correct answer, over the state the workload starts from.
/// Harness generation and population are not included.
pub fn setup(p: &Prepared, ctx: &Ctx<'_>, starts: usize) -> Result<Vec<f64>, String> {
    let _g = ctx.tracer.open("harness.setup", 0, 0);
    let mut out = Vec::new();
    for _ in 0..starts {
        let t = Instant::now();
        let (outcome, took) = match &p.probe.send {
            Send::File(path) => {
                let run = ctx.ttsolve().run(path);
                (
                    check_ttsolve(run.ok, &run.stdout, p.probe.expect),
                    run.latency,
                )
            }
            Send::Serve(req) => {
                let server = Server::start(&ctx.ttserve(), &server_args(p, p.state.as_deref()))?;
                let (resp, _) = sut::fresh_request(server.addr, req);
                let took = t.elapsed();
                // Stopping the server is not part of its start-up.
                server.stop()?;
                (check_response(&resp, p.probe.expect), took)
            }
        };
        if !outcome.is_correct() {
            return Err(format!("start-up probe failed: {outcome:?}"));
        }
        out.push(took.as_secs_f64());
    }
    Ok(out)
}

/// The timed phase: the whole fixed sequence, closed loop.
pub fn timed(p: &Prepared, ctx: &Ctx<'_>, pass: &str) -> Result<Timed, String> {
    let phase = ctx.tracer.open("harness.timed", 0, 0);
    match p.workload {
        Workload::CliSolve => {
            let solve = ctx.ttsolve();
            let mut samples = Vec::with_capacity(p.ops.len());
            let mut peak_rss_kib = 0;
            for (i, op) in p.ops.iter().enumerate() {
                let Send::File(path) = &op.send else {
                    unreachable!("cli-solve sends files")
                };
                let (run, _) = ctx
                    .tracer
                    .time("ttsolve.exec", phase.id, i as u64 + 1, || solve.run(path));
                peak_rss_kib = peak_rss_kib.max(run.peak_rss_kib);
                samples.push(Sample {
                    class: op.class.clone(),
                    latency: run.latency,
                    connect: None,
                    outcome: check_ttsolve(run.ok, &run.stdout, op.expect),
                    engine: None,
                    keyed_new: false,
                });
            }
            // One process at a time: the system's wall time is the sum
            // of the runs, without the harness's own steps between them.
            let wall = samples.iter().map(|s| s.latency).sum();
            Ok(Timed {
                samples,
                wall,
                peak_rss_kib,
                scrape: BTreeMap::new(),
            })
        }
        Workload::ServeCold | Workload::ServeRepeat => {
            let state = match &p.state {
                Some(s) => {
                    let copy = p.work.join(format!("state-{pass}"));
                    for sub in ["journal", "cache"] {
                        copy_dir(&s.join(sub), &copy.join(sub))?;
                    }
                    Some(copy)
                }
                None => None,
            };
            let server = {
                let _g = ctx.tracer.open("ttserve.start", phase.id, 0);
                Server::start(&ctx.ttserve(), &server_args(p, state.as_deref()))?
            };
            let warm = drive(
                &p.warmup,
                server.addr,
                p.workload.clients(),
                false,
                &Tracer::new(false),
                0,
            );
            if let Some(bad) = warm.iter().find(|s| s.outcome.is_wrong()) {
                return Err(format!("wrong answer in the warm-up: {:?}", bad.outcome));
            }
            let before = {
                let _g = ctx.tracer.open("ttserve.scrape", phase.id, 0);
                server.scrape()?
            };
            let persistent = p.workload == Workload::ServeRepeat;
            let start = Instant::now();
            let samples = drive(
                &p.ops,
                server.addr,
                p.workload.clients(),
                persistent,
                ctx.tracer,
                phase.id,
            );
            let wall = start.elapsed();
            let peak = crate::machine::process_peak_rss_kib(server.pid()).unwrap_or(0);
            let after = {
                let _g = ctx.tracer.open("ttserve.scrape", phase.id, 0);
                server.scrape()?
            };
            {
                let _g = ctx.tracer.open("ttserve.drain", phase.id, 0);
                server.stop()?;
            }
            let scrape = after
                .iter()
                .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
                .collect();
            Ok(Timed {
                samples,
                wall,
                peak_rss_kib: peak,
                scrape,
            })
        }
    }
}

/// `clients` closed-loop clients working through `ops` in order.
/// With `persistent`, each client holds one connection for the whole
/// run (reconnecting only after a transport failure); otherwise each
/// request opens a fresh connection.
fn drive(
    ops: &[Op],
    addr: std::net::SocketAddr,
    clients: usize,
    persistent: bool,
    tracer: &Tracer,
    parent: u64,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Sample>>> = Mutex::new(vec![None; ops.len()]);
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                let mut conn: Option<Client> = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(op) = ops.get(i) else { break };
                    let Send::Serve(req) = &op.send else {
                        unreachable!("serve workloads send requests")
                    };
                    let opid = i as u64 + 1;
                    let span = tracer.open("op", parent, opid);
                    let t = Instant::now();
                    let mut connect = None;
                    if conn.is_none() {
                        let (c, took) = tracer.time("client.connect", span.id, opid, || {
                            Client::connect(addr, sut::IO_TIMEOUT)
                        });
                        connect = Some(took);
                        conn = c.ok();
                    }
                    let resp = match conn.as_mut() {
                        Some(c) => tracer
                            .time("client.request", span.id, opid, || c.request(req))
                            .0
                            .map_err(|e| e.to_string()),
                        None => Err("connect failed".to_string()),
                    };
                    let latency = t.elapsed();
                    drop(span);
                    if resp.is_err() || !persistent {
                        conn = None;
                    }
                    let mut outcome = check_response(&resp, op.expect);
                    let (engine, recovered) = match &resp {
                        Ok(Response::Solved(r)) => (Some(r.engine.clone()), r.recovered),
                        _ => (None, false),
                    };
                    if op.must_recover && outcome.is_correct() && !recovered {
                        outcome = Outcome::Wrong("a journaled key was executed again".to_string());
                    }
                    let sample = Sample {
                        class: op.class.clone(),
                        latency,
                        connect,
                        outcome,
                        engine,
                        keyed_new: op.class == "new-keyed",
                    };
                    slots.lock().expect("sample slots poisoned")[i] = Some(sample);
                }
            });
        }
    });
    slots
        .into_inner()
        .expect("sample slots poisoned")
        .into_iter()
        .map(|s| s.expect("every operation ran"))
        .collect()
}
