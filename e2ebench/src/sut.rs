//! The system under test, driven from outside: `ttsolve` processes and
//! `ttserve serve` processes spoken to over the wire protocol with the
//! repository's own client.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tt_serve::proto::{Request, Response, SolveParams, SolveResult, Source};
use tt_serve::Client;

/// How one answer compared with the reference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Complete, and the cost equals the reference optimum.
    Correct,
    /// An answer that contradicts the reference: a complete answer with
    /// another cost, a degraded answer whose bounds do not sandwich the
    /// optimum, or output that cannot be read as an answer.
    Wrong(String),
    /// Degraded to bounds that do hold the optimum (missed the deadline).
    Degraded,
    /// An error, a refusal, or a transport failure.
    Error(String),
}

impl Outcome {
    pub fn is_correct(&self) -> bool {
        *self == Outcome::Correct
    }
    pub fn is_wrong(&self) -> bool {
        matches!(self, Outcome::Wrong(_))
    }
}

/// Checks a `ttsolve` run: exit status 0 and an "optimal expected
/// cost" line equal to `expect`.
pub fn check_ttsolve(status_ok: bool, stdout: &str, expect: u64) -> Outcome {
    let cost = stdout
        .lines()
        .find_map(|l| l.strip_prefix("optimal expected cost: "))
        .map(str::trim);
    match (status_ok, cost) {
        (true, Some(c)) if c == expect.to_string() => Outcome::Correct,
        (true, Some(c)) => Outcome::Wrong(format!("cost {c}, optimum {expect}")),
        (true, None) => Outcome::Wrong("no cost line in the output".to_string()),
        (false, _) => Outcome::Error(format!(
            "ttsolve failed: {}",
            stdout.lines().next().unwrap_or("")
        )),
    }
}

/// Checks a served answer against the optimum.
pub fn check_response(resp: &Result<Response, String>, expect: u64) -> Outcome {
    match resp {
        Ok(Response::Solved(r)) => check_result(r, expect),
        Ok(Response::Error { kind, message }) => {
            Outcome::Error(format!("{}: {message}", kind.as_str()))
        }
        Ok(other) => Outcome::Wrong(format!("not a solve response: {other:?}")),
        Err(e) => Outcome::Error(e.clone()),
    }
}

fn check_result(r: &SolveResult, expect: u64) -> Outcome {
    if r.complete {
        return match r.cost {
            Some(c) if c == expect => Outcome::Correct,
            other => Outcome::Wrong(format!("cost {other:?}, optimum {expect}")),
        };
    }
    let lower_ok = r.lower.is_some_and(|l| l <= expect);
    let upper_ok = r.upper.is_none_or(|u| u >= expect);
    if lower_ok && upper_ok {
        Outcome::Degraded
    } else {
        Outcome::Wrong(format!(
            "degraded bounds [{:?}, {:?}] miss optimum {expect}",
            r.lower, r.upper
        ))
    }
}

/// A solve request carrying instance text, never a `demo:` spec.
pub fn solve_request(
    text: &str,
    solver: Option<&str>,
    timeout_ms: Option<u64>,
    key: Option<String>,
) -> Request {
    Request::Solve(SolveParams {
        id: None,
        source: Source::Instance(text.to_string()),
        solver: solver.map(str::to_string),
        timeout_ms,
        key,
    })
}

/// Socket timeout of every harness connection: longer than any solve
/// the workloads allow, so a timeout means the server is stuck.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One request on a fresh connection; returns the response and the
/// time spent connecting.
pub fn fresh_request(addr: SocketAddr, req: &Request) -> (Result<Response, String>, Duration) {
    let t = Instant::now();
    match Client::connect(addr, IO_TIMEOUT) {
        Ok(mut c) => {
            let connected = t.elapsed();
            (c.request(req).map_err(|e| e.to_string()), connected)
        }
        Err(e) => (Err(e.to_string()), t.elapsed()),
    }
}

/// A running `ttserve serve` child.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `ttserve serve` on an ephemeral loopback port with `args`
    /// and waits for its "serving on" line.
    pub fn start(ttserve: &Path, args: &[String]) -> Result<Server, String> {
        let mut child = Command::new(ttserve)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ttserve.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("ttserve: serving on ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("ttserve did not come up: {:?}", line.trim()))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The Prometheus scrape, as name → value.
    pub fn scrape(&self) -> Result<BTreeMap<String, f64>, String> {
        match fresh_request(self.addr, &Request::Metrics).0 {
            Ok(Response::Metrics(text)) => Ok(parse_prometheus(&text)),
            other => Err(format!("metrics scrape failed: {other:?}")),
        }
    }

    /// Drains the server and waits for the process to exit (killing it
    /// if the drain does not finish in time).
    pub fn stop(mut self) -> Result<(), String> {
        let _ = fresh_request(self.addr, &Request::Drain);
        let until = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("ttserve exited with {status}")),
                Ok(None) if Instant::now() < until => std::thread::sleep(Duration::from_millis(5)),
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("ttserve did not drain in time; killed".to_string());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A server left behind by an early return is killed, never leaked.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Parses Prometheus text into name → value (histograms appear as
/// `<name>_sum` and `<name>_count`; bucket lines are skipped).
pub fn parse_prometheus(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            Some((it.next()?.to_string(), it.next()?.parse().ok()?))
        })
        .collect()
}

/// The `ttsolve` binary, run through a fresh `e2ebench exec-one`
/// process. A child's peak resident set includes its parent's at the
/// moment it was spawned, so `ttsolve` is started from that small
/// process rather than from the harness, which holds the run's inputs.
pub struct Ttsolve {
    pub exe: PathBuf,
}

/// One `ttsolve` run as `exec-one` reports it.
pub struct TtsolveRun {
    /// Exited with status 0.
    pub ok: bool,
    pub stdout: String,
    /// From spawning `ttsolve` until its output was in and it had exited.
    pub latency: Duration,
    /// Peak resident set of the `ttsolve` process, in KiB.
    pub peak_rss_kib: u64,
}

/// The last line `exec-one` prints: `<tag> <ok 0|1> <nanos> <rss KiB>`.
const EXEC_TAG: &str = "e2ebench-exec";

impl Ttsolve {
    /// Runs `ttsolve <file>` with default flags.
    pub fn run(&self, file: &Path) -> TtsolveRun {
        let failed = |why: String| TtsolveRun {
            ok: false,
            stdout: why,
            latency: Duration::ZERO,
            peak_rss_kib: 0,
        };
        let me = match std::env::current_exe() {
            Ok(me) => me,
            Err(e) => return failed(format!("cannot find the harness: {e}")),
        };
        let out = match Command::new(me)
            .arg("exec-one")
            .arg(&self.exe)
            .arg(file)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
        {
            Ok(o) => String::from_utf8_lossy(&o.stdout).into_owned(),
            Err(e) => return failed(format!("cannot run exec-one: {e}")),
        };
        parse_exec_report(&out)
            .unwrap_or_else(|| failed(format!("exec-one printed no report: {out:?}")))
    }
}

/// Splits `exec-one`'s output into `ttsolve`'s standard output and the
/// report line.
fn parse_exec_report(out: &str) -> Option<TtsolveRun> {
    let (body, last) = out
        .trim_end_matches('\n')
        .rsplit_once('\n')
        .unwrap_or(("", out.trim_end()));
    let mut f = last.split_whitespace();
    if f.next()? != EXEC_TAG {
        return None;
    }
    let ok = f.next()? == "1";
    let nanos = f.next()?.parse().ok()?;
    let rss = f.next()?.parse().ok()?;
    Some(TtsolveRun {
        ok,
        stdout: body.to_string(),
        latency: Duration::from_nanos(nanos),
        peak_rss_kib: rss,
    })
}

/// `e2ebench exec-one <ttsolve> <file>`: runs the one process, prints
/// its standard output and then the `exec-one` report line.
pub fn exec_one(args: &[String]) -> i32 {
    let [exe, file] = args else {
        eprintln!("usage: e2ebench exec-one <ttsolve> <file>");
        return 2;
    };
    let t = Instant::now();
    let out = Command::new(exe)
        .arg(file)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output();
    let latency = t.elapsed();
    let (ok, stdout) = match out {
        Ok(o) => (o.status.success(), o.stdout),
        Err(e) => (false, format!("cannot run {exe}: {e}").into_bytes()),
    };
    let rss = crate::machine::children_peak_rss_kib().unwrap_or(0);
    let mut text = String::from_utf8_lossy(&stdout).into_owned();
    if !text.is_empty() && !text.ends_with('\n') {
        text.push('\n');
    }
    println!(
        "{text}{EXEC_TAG} {} {} {rss}",
        u8::from(ok),
        latency.as_nanos()
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solved(
        complete: bool,
        cost: Option<u64>,
        lower: Option<u64>,
        upper: Option<u64>,
    ) -> Response {
        Response::Solved(SolveResult {
            id: None,
            engine: "seq".to_string(),
            complete,
            cost,
            upper,
            lower,
            reason: None,
            recovered: false,
            cached: false,
            failovers: 0,
            retries: 0,
            wall_us: 1,
        })
    }

    #[test]
    fn a_forced_wrong_answer_is_not_a_success() {
        assert!(check_response(&Ok(solved(true, Some(41), None, None)), 41).is_correct());
        let wrong = check_response(&Ok(solved(true, Some(40), None, None)), 41);
        assert!(wrong.is_wrong());
        assert!(check_ttsolve(true, "optimal expected cost: 41\n", 41).is_correct());
        assert!(check_ttsolve(true, "optimal expected cost: 42\n", 41).is_wrong());
        assert!(check_ttsolve(true, "degraded result\n", 41).is_wrong());
    }

    #[test]
    fn degraded_errors_and_bad_bounds_are_failures() {
        let degraded = check_response(&Ok(solved(false, Some(50), Some(30), Some(50))), 41);
        assert_eq!(degraded, Outcome::Degraded);
        let bad = check_response(&Ok(solved(false, Some(50), Some(45), Some(50))), 41);
        assert!(bad.is_wrong());
        let shed = Ok(Response::Error {
            kind: tt_serve::ErrorKind::Overloaded,
            message: "full".to_string(),
        });
        assert!(matches!(check_response(&shed, 41), Outcome::Error(_)));
        assert!(matches!(
            check_response(&Err("refused".to_string()), 41),
            Outcome::Error(_)
        ));
        assert!(matches!(check_ttsolve(false, "", 41), Outcome::Error(_)));
    }

    #[test]
    fn exec_one_reports_split_from_the_output() {
        let run =
            parse_exec_report("optimal expected cost: 41\nmore\ne2ebench-exec 1 2500000 5632\n")
                .expect("a report");
        assert!(run.ok);
        assert_eq!(run.stdout, "optimal expected cost: 41\nmore");
        assert_eq!(run.latency, Duration::from_micros(2500));
        assert_eq!(run.peak_rss_kib, 5632);
        let empty = parse_exec_report("e2ebench-exec 0 7 1\n").expect("a report");
        assert!(!empty.ok);
        assert_eq!(empty.stdout, "");
        assert!(parse_exec_report("optimal expected cost: 41\n").is_none());
    }

    #[test]
    fn prometheus_text_parses_counters_and_histogram_totals() {
        let m = parse_prometheus(
            "# TYPE a counter\na 3\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 10\nh_count 2\n",
        );
        assert_eq!(m["a"], 3.0);
        assert_eq!(m["h_sum"], 10.0);
        assert_eq!(m["h_count"], 2.0);
        assert!(!m.contains_key("h_bucket"));
    }
}
