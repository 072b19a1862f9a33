//! End-to-end benchmark of the shipped `ttsolve` and `ttserve` binaries.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> --bin-dir <dir>
//! e2ebench steady --workload <name> --runs <n> [--first-seed <n>] [--seconds <s>]
//!                 [--trace <0|1>] --bin-dir <dir>
//! e2ebench exec-one <ttsolve> <file>     (one cli-solve process; see `sut::Ttsolve`)
//! ```
//!
//! A run prints its machine record and sample counts on one line, then,
//! as the last line, `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `steady` repeats a run over consecutive seeds and
//! prints each end-to-end metric's median, quartiles and spread against
//! the bound in `BENCHMARK.json`. See README.md beside this file.

mod inputs;
mod layers;
mod machine;
mod stats;
mod sut;
mod trace;
mod workloads;

use layers::Metrics;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{exit, Command};
use trace::Tracer;
use tt_serve::json::{self as json, Json};
use workloads::{Ctx, Timed, Workload, SETUP_STARTS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    bin_dir: PathBuf,
    runs: usize,
}

fn usage(msg: &str) -> ! {
    eprintln!("e2ebench: {msg}");
    eprintln!(
        "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1> --bin-dir <dir>\n\
         \x20      e2ebench steady --workload <name> --runs <n> [--first-seed <n>] [--seconds <s>] \
         [--trace <0|1>] --bin-dir <dir>",
        Workload::ALL.map(Workload::name).join("|")
    );
    exit(2)
}

fn parse_args(args: &[String], seconds_default: Option<u64>) -> Args {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut bin_dir, mut runs) =
        (1, seconds_default, false, None, 10);
    let mut it = args.iter();
    let num = |v: Option<&String>, flag: &str| -> u64 {
        v.and_then(|s| s.parse().ok())
            .unwrap_or_else(|| usage(&format!("{flag} needs a whole number")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => {
                let name = it.next().map_or("", String::as_str);
                workload = Some(
                    Workload::parse(name)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{name}'"))),
                );
            }
            "--seed" | "--first-seed" => seed = num(it.next(), a),
            "--seconds" => seconds = Some(num(it.next(), a)),
            "--trace" => {
                trace = match it.next().map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--runs" => runs = num(it.next(), a) as usize,
            "--bin-dir" => bin_dir = it.next().map(PathBuf::from),
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds: seconds
            .unwrap_or_else(|| usage("--seconds is required"))
            .max(1),
        trace,
        bin_dir: bin_dir.unwrap_or_else(|| usage("--bin-dir is required")),
        runs,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("exec-one") {
        exit(sut::exec_one(&argv[1..]));
    }
    if argv.first().map(String::as_str) == Some("steady") {
        let bench = read_benchmark_json().unwrap_or_else(|e| usage(&e));
        let run_seconds = bench.get("run_seconds").and_then(Json::as_u64);
        steady(&parse_args(&argv[1..], run_seconds), &bench);
        return;
    }
    let args = parse_args(&argv, None);
    for exe in ["ttsolve", "ttserve"] {
        if !args.bin_dir.join(exe).is_file() {
            usage(&format!("no {exe} in {}", args.bin_dir.display()));
        }
    }
    match run(&args) {
        Ok((record, result)) => {
            println!("{record}");
            println!("{result}");
        }
        Err(e) => {
            eprintln!("e2ebench: {} seed {}: {e}", args.workload.name(), args.seed);
            exit(1)
        }
    }
}

/// The directory build outputs go to (the parent of `--bin-dir`), where
/// the run's scratch files and traces live too.
fn out_dir(args: &Args) -> PathBuf {
    args.bin_dir
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// One run; returns the record line and the result line.
fn run(args: &Args) -> Result<(String, String), String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let calib_start = machine::calibration_ms();
    let jiffies_start = machine::cpu_jiffies();
    let work = out_dir(args).join("e2ebench-work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let result = measure(args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let (mut record, metrics, correct, attempted, failed) = result?;

    let calib_end = machine::calibration_ms();
    let steal = machine::steal_pct(jiffies_start, machine::cpu_jiffies());
    let mut metrics = metrics;
    if args.trace {
        put(
            &mut metrics,
            "harness.calib_ms",
            (calib_start + calib_end) / 2.0,
        );
        put(&mut metrics, "harness.cpu_steal_pct", steal);
        let mut got: Vec<&String> = metrics.keys().collect();
        let mut want = layers::names();
        got.sort();
        want.sort();
        assert!(
            got == want.iter().collect::<Vec<_>>(),
            "traced metrics differ from PER_LAYER"
        );
    }
    record.insert("machine", machine::record_json(&root, args.seed));
    record.insert("calib_ms_start", format!("{calib_start}"));
    record.insert("calib_ms_end", format!("{calib_end}"));
    record.insert("cpu_steal_pct", format!("{steal}"));
    let record = format!(
        "{{\"record\":{{{}}}}}",
        record
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    Ok((record, result_line(correct, attempted, failed, &metrics)))
}

/// The end-to-end metrics, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Inserts a metric with the unit its table gives it.
fn put(m: &mut Metrics, name: &str, value: f64) {
    let unit = END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map_or_else(|| layers::unit(name), |(_, u)| *u);
    m.insert(name.to_string(), (value, unit));
}

/// The end-to-end metrics of an untraced pass.
fn end_to_end(plain: &Timed, setup: &[f64]) -> Metrics {
    let lat: Vec<f64> = plain
        .samples
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    let ok = plain
        .samples
        .iter()
        .filter(|s| s.outcome.is_correct())
        .count();
    let mut m = Metrics::new();
    put(
        &mut m,
        "latency_p50_ms",
        stats::quantile(&lat, 0.5).unwrap_or(0.0),
    );
    put(
        &mut m,
        "latency_p90_ms",
        stats::quantile(&lat, 0.9).unwrap_or(0.0),
    );
    put(&mut m, "ops_per_s", ok as f64 / plain.wall.as_secs_f64());
    put(&mut m, "peak_rss_mib", plain.peak_rss_kib as f64 / 1024.0);
    put(&mut m, "setup_s", stats::median(setup).unwrap_or(0.0));
    m
}

/// The last line of a run's output.
fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let metrics_json = metrics
        .iter()
        .map(|(k, (v, unit))| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{k}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{metrics_json}}}}}"
    )
}

type Measured = (BTreeMap<&'static str, String>, Metrics, bool, usize, usize);

fn measure(args: &Args, work: &Path) -> Result<Measured, String> {
    let tracer = Tracer::new(args.trace);
    let untraced = Tracer::new(false);
    let ctx = |tracer| Ctx {
        seed: args.seed,
        seconds: args.seconds,
        bins: &args.bin_dir,
        work,
        tracer,
    };
    let traced_ctx = ctx(&tracer);
    let prepared = workloads::prepare(args.workload, &traced_ctx)?;
    let mut setup = workloads::setup(&prepared, &traced_ctx, SETUP_STARTS.div_ceil(2))?;
    // The end-to-end figures always come from an untraced pass; a
    // traced run repeats the pass with spans on and reports the ratio.
    let plain = workloads::timed(&prepared, &ctx(&untraced), "plain")?;
    setup.extend(workloads::setup(&prepared, &traced_ctx, SETUP_STARTS / 2)?);
    let traced = if args.trace {
        Some(workloads::timed(&prepared, &traced_ctx, "traced")?)
    } else {
        None
    };
    let reported: &Timed = traced.as_ref().unwrap_or(&plain);

    let attempted = reported.samples.len();
    let failed = reported
        .samples
        .iter()
        .filter(|s| !s.outcome.is_correct())
        .count();
    let wrong: Vec<String> = [&plain]
        .into_iter()
        .chain(traced.as_ref())
        .flat_map(|t| &t.samples)
        .filter(|s| s.outcome.is_wrong())
        .map(|s| format!("{}: {:?}", s.class, s.outcome))
        .collect();
    for w in wrong.iter().take(5) {
        eprintln!("e2ebench: wrong answer: {w}");
    }
    let correct = wrong.is_empty();

    let metrics = if let Some(traced) = &traced {
        let mut m = layers::measure(&prepared, traced, &tracer, args.seed)?;
        put(
            &mut m,
            "harness.trace_overhead_ratio",
            traced.wall.as_secs_f64() / plain.wall.as_secs_f64(),
        );
        let summary = tracer.summary();
        for name in layers::SPANS {
            let (n, own) = summary.get(name).copied().unwrap_or_default();
            put(&mut m, &format!("span.{name}.count"), n as f64);
            put(
                &mut m,
                &format!("span.{name}.self_ms"),
                own.as_secs_f64() * 1e3,
            );
        }
        let dir = out_dir(args).join("e2ebench-traces");
        let file = dir.join(format!("{}-{}.jsonl", args.workload.name(), args.seed));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&file, tracer.to_jsonl()))
            .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
        m
    } else {
        end_to_end(&plain, &setup)
    };

    let mut record = BTreeMap::new();
    record.insert("workload", format!("\"{}\"", args.workload.name()));
    record.insert("seconds", args.seconds.to_string());
    record.insert("trace", args.trace.to_string());
    record.insert("latency_samples", reported.samples.len().to_string());
    record.insert("setup_samples", setup.len().to_string());
    record.insert(
        "setup_s",
        format!(
            "[{}]",
            setup
                .iter()
                .map(f64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    record.insert("timed_wall_s", reported.wall.as_secs_f64().to_string());
    if let Some(p) = prepared.populate {
        record.insert("populate_s", p.as_secs_f64().to_string());
    }
    let mut classes: BTreeMap<&str, (Vec<f64>, usize)> = BTreeMap::new();
    for s in &reported.samples {
        let e = classes.entry(s.class.as_str()).or_default();
        e.0.push(s.latency.as_secs_f64() * 1e3);
        e.1 += usize::from(!s.outcome.is_correct());
    }
    record.insert(
        "classes",
        format!(
            "{{{}}}",
            classes
                .iter()
                .map(|(c, (lat, f))| format!(
                    "\"{c}\":{{\"sent\":{},\"failed\":{f},\"p50_ms\":{:.3}}}",
                    lat.len(),
                    stats::median(lat).unwrap_or(0.0)
                ))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    Ok((record, metrics, correct, attempted, failed))
}

fn read_benchmark_json() -> Result<Json, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
}

fn num(v: &Json) -> Option<f64> {
    match v {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

/// The steadiness report: `runs` runs on consecutive seeds, then each
/// end-to-end metric's median, quartiles and spread (interquartile
/// distance over the median) against its bound. A metric is steady
/// when its spread is under a third of its bound.
fn steady(args: &Args, bench: &Json) {
    let exe = std::env::current_exe().unwrap_or_else(|e| usage(&format!("own path: {e}")));
    let bounds: Vec<(String, String, f64)> = match bench.get("end_to_end") {
        Some(Json::Arr(v)) => v
            .iter()
            .filter_map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("unit")?.as_str()?.to_string(),
                    m.get("bound").and_then(num)?,
                ))
            })
            .collect(),
        _ => usage("BENCHMARK.json has no end_to_end list"),
    };
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut failed = Vec::new();
    for i in 0..args.runs {
        let seed = args.seed + i as u64;
        let out = Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--bin-dir")
            .arg(&args.bin_dir)
            .output()
            .unwrap_or_else(|e| usage(&format!("cannot run {}: {e}", exe.display())));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let record = stdout
            .lines()
            .rev()
            .nth(1)
            .and_then(|l| json::parse(l).ok());
        let drift = record.as_ref().and_then(|r| r.get("record")).map(|r| {
            let f = |k| r.get(k).and_then(num).unwrap_or(f64::NAN);
            format!(
                " calib_ms={:.1}/{:.1} steal_pct={:.1}",
                f("calib_ms_start"),
                f("calib_ms_end"),
                f("cpu_steal_pct")
            )
        });
        let Ok(v) = json::parse(last) else {
            println!("seed {seed}: no result (exit {})", out.status);
            continue;
        };
        let (a, f) = (
            v.get("attempted").and_then(Json::as_u64).unwrap_or(0),
            v.get("failed").and_then(Json::as_u64).unwrap_or(0),
        );
        let correct = v.get("correct").and_then(Json::as_bool).unwrap_or(false);
        failed.push(f);
        let mut line = format!(
            "seed {seed}: correct={correct} attempted={a} failed={f}{}",
            drift.unwrap_or_default()
        );
        if let Some(Json::Obj(ms)) = v.get("metrics") {
            for (name, m) in ms {
                if let Some(x) = m.get("value").and_then(num) {
                    values.entry(name.clone()).or_default().push(x);
                    if !args.trace {
                        line.push_str(&format!(" {name}={x:.4}"));
                    }
                }
            }
        }
        println!("{line}");
    }
    println!(
        "{} x{} ({}s each): failed counts {:?}",
        args.workload.name(),
        args.runs,
        args.seconds,
        failed
    );
    let rows: Vec<(String, String, Option<f64>)> = if args.trace {
        values
            .keys()
            .map(|k| (k.clone(), String::new(), None))
            .collect()
    } else {
        bounds
            .into_iter()
            .map(|(n, u, b)| (n, u, Some(b)))
            .collect()
    };
    for (name, unit, bound) in rows {
        let v = values.get(&name).cloned().unwrap_or_default();
        let q = |p| stats::quantile(&v, p).unwrap_or(f64::NAN);
        let spread = stats::spread(&v).unwrap_or(f64::NAN);
        let verdict = match bound {
            Some(b) if spread < b / 3.0 => format!("bound {b}: steady"),
            Some(b) if spread <= b => format!("bound {b}: within bound, not steady"),
            Some(b) => format!("bound {b}: TOO NOISY"),
            None => String::new(),
        };
        println!(
            "{name:<40} n={:<3} median={:<12.4} q1={:<12.4} q3={:<12.4} spread={:<8.4} {unit} {verdict}",
            v.len(),
            q(0.5),
            q(0.25),
            q(0.75),
            spread
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use workloads::Sample;

    fn listed(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let bench = json::parse(text).expect("BENCHMARK.json parses");
        let Some(Json::Arr(list)) = bench.get(section) else {
            panic!("BENCHMARK.json has no {section} list")
        };
        let mut v: Vec<(String, String)> = list
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect();
        v.sort();
        v
    }

    fn reported(line: &str) -> Vec<(String, String)> {
        let v = json::parse(line).expect("the result line is JSON");
        let Some(Json::Obj(ms)) = v.get("metrics") else {
            panic!("no metrics object")
        };
        let mut out: Vec<(String, String)> = ms
            .iter()
            .map(|(k, m)| {
                assert!(m.get("value").and_then(num).is_some(), "{k} has no value");
                (
                    k.clone(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect();
        out.sort();
        out
    }

    fn sample(ms: u64, outcome: sut::Outcome) -> Sample {
        Sample {
            class: "c".to_string(),
            latency: Duration::from_millis(ms),
            connect: None,
            outcome,
            engine: None,
            keyed_new: false,
        }
    }

    #[test]
    fn result_lines_carry_every_benchmark_metric_with_its_unit() {
        let timed = Timed {
            samples: (1..=100)
                .map(|i| sample(i, sut::Outcome::Correct))
                .collect(),
            wall: Duration::from_secs(2),
            peak_rss_kib: 2048,
            scrape: BTreeMap::new(),
        };
        let m = end_to_end(&timed, &[0.5, 0.25, 0.75]);
        assert_eq!(
            reported(&result_line(true, 100, 0, &m)),
            listed("end_to_end")
        );
        assert_eq!(m["ops_per_s"].0, 50.0);
        assert_eq!(m["setup_s"].0, 0.5);
        assert_eq!(m["peak_rss_mib"].0, 2.0);

        let mut layer = Metrics::new();
        for name in layers::names() {
            put(&mut layer, &name, 1.0);
        }
        assert_eq!(
            reported(&result_line(true, 1, 0, &layer)),
            listed("per_layer")
        );
    }

    #[test]
    fn a_wrong_answer_counts_as_failed_not_as_a_fast_success() {
        let timed = Timed {
            samples: vec![
                sample(10, sut::Outcome::Correct),
                sample(1, sut::Outcome::Wrong("cost 1, optimum 2".to_string())),
            ],
            wall: Duration::from_secs(1),
            peak_rss_kib: 1024,
            scrape: BTreeMap::new(),
        };
        // Goodput counts only the correct answer.
        assert_eq!(end_to_end(&timed, &[1.0])["ops_per_s"].0, 1.0);
        let failed = timed
            .samples
            .iter()
            .filter(|s| !s.outcome.is_correct())
            .count();
        assert_eq!(failed, 1);
    }
}
