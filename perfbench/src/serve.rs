//! The `serve-mix` workload: `rms serve` over HTTP on 127.0.0.1 with a
//! fresh journaled cache, driven by two closed-loop clients.
//!
//! A job is one request, timed from connect to the last response byte.
//! Requests follow an assumed popularity skew (Zipf, see
//! [`crate::inputs::serve_suite`]) over 16 circuits (inline BLIF,
//! `opt:"cut"`, `deterministic:true`): each round holds every
//! circuit as often as its weight, the run ends on a round boundary, and
//! the seed orders every round after the first. The first request of
//! each circuit is a cache miss (a pipeline run and a journal append);
//! the rest are hits.

use crate::check::{self, Size, SizeLedger};
use crate::inputs::{Circuit, Rng};
use crate::stats::{json_str, Tally};
use crate::trace::Trace;
use rms_core::netlist_structural_hash;
use rms_core::opt::{Algorithm, OptOptions};
use rms_flow::{input, render_json, InputFormat, Pipeline, StageTimings};
use rms_serve::json::Value;
use rms_serve::persist::fnv1a64;
use rms_serve::{HttpServer, ServeConfig, Service, JOURNAL_FILE};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Concurrent closed-loop clients.
pub const CLIENTS: usize = 2;

/// A running HTTP server with a journaled cache.
pub struct Server {
    service: Arc<Service>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<io::Result<()>>,
}

impl Server {
    /// Builds the service on `cache_dir` and starts serving; everything
    /// up to the point a request can be sent.
    pub fn start(cache_dir: &Path) -> io::Result<Server> {
        let service = Arc::new(Service::new(config(cache_dir)));
        let http = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0")?;
        let addr = http.local_addr();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let thread = thread::spawn(move || http.run(&flag));
        Ok(Server {
            service,
            addr,
            shutdown,
            thread,
        })
    }

    /// Stops accepting, waits for the listener thread, and compacts the
    /// journal.
    pub fn stop(self) -> io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        // The accept loop checks the flag after each accept: wake it.
        let _ = TcpStream::connect(self.addr);
        self.thread
            .join()
            .map_err(|_| io::Error::other("HTTP listener thread panicked"))??;
        self.service.shutdown();
        Ok(())
    }
}

fn config(cache_dir: &Path) -> ServeConfig {
    ServeConfig {
        cache_dir: Some(cache_dir.to_path_buf()),
        ..ServeConfig::default()
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// Creates `.perfbench_tmp/<pid>-<tag>` under the working directory.
    pub fn new(tag: &str) -> io::Result<ScratchDir> {
        let dir = PathBuf::from(".perfbench_tmp").join(format!("{}-{tag}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent only when no other run is using it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

/// Sends `body` to `POST path` and returns the status line and the
/// response body.
fn exchange(addr: SocketAddr, path: &str, body: &str) -> Result<(String, String), String> {
    let io = |e: io::Error| e.to_string();
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/x-ndjson\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(io)?;
    stream.write_all(body.as_bytes()).map_err(io)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(io)?;
    let text = String::from_utf8(raw).map_err(|e| e.to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response without a header terminator")?;
    let status = head.lines().next().unwrap_or("").to_string();
    Ok((status, body.trim_end().to_string()))
}

/// Sends one NDJSON body to `POST /synth` and returns the response body.
fn post(addr: SocketAddr, body: &str) -> Result<String, String> {
    let (status, body) = exchange(addr, "/synth", body)?;
    if !status.starts_with("HTTP/1.1 200") {
        return Err(format!("HTTP status {status:?}: {}", body.trim()));
    }
    Ok(body)
}

/// Round trips per circuit in the HTTP transport probe.
const HTTP_PROBES: usize = 5;

/// The HTTP transport's own cost for a request body: the median round
/// trip (ms) of the same body sent to a route that does not exist. The
/// server reads the whole body before it routes, so this is connect,
/// header and body transfer, and a small error response, without the
/// handler. Probes go one at a time, so no contention is in them.
fn http_probe(addr: SocketAddr, line: &str) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(HTTP_PROBES);
    for _ in 0..HTTP_PROBES {
        let t0 = Instant::now();
        let (status, _) = exchange(addr, "/perfbench-http-probe", line)?;
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
        if !status.starts_with("HTTP/1.1 404") {
            return Err(format!("HTTP probe answered {status:?}, expected 404"));
        }
    }
    Ok(crate::stats::median(&samples).unwrap_or(0.0))
}

/// The request line for one circuit.
fn request_line(index: usize, c: &Circuit) -> String {
    format!(
        "{{\"id\":\"c{index}\",\"circuit\":{},\"format\":\"blif\",\"opt\":\"cut\",\"deterministic\":true}}",
        json_str(c.text())
    )
}

/// Hands out requests to the clients: rounds of the weighted multiset,
/// stopping on the first round boundary after the time budget. The first
/// round meets a cold cache, and which of its misses overlap sets the
/// run's peak memory, so its order is the same for every seed; the seed
/// shuffles every later round.
struct Dispatch {
    rng: Rng,
    multiset: Vec<usize>,
    round: Vec<usize>,
    next: usize,
    done: bool,
    start: Instant,
    budget: Duration,
}

impl Dispatch {
    fn new(weights: &[usize], seed: u64, budget: Duration) -> Dispatch {
        Dispatch {
            rng: Rng::new(seed, 3),
            multiset: weights
                .iter()
                .enumerate()
                .flat_map(|(i, &w)| std::iter::repeat_n(i, w))
                .collect(),
            round: Vec::new(),
            next: 0,
            done: false,
            start: Instant::now(),
            budget,
        }
    }

    /// The next request as (position in the sequence, circuit index).
    fn take(&mut self) -> Option<(usize, usize)> {
        let pos = self.next % self.multiset.len();
        if pos == 0 {
            if self.done || (self.next > 0 && self.start.elapsed() >= self.budget) {
                self.done = true;
                return None;
            }
            self.round.clone_from(&self.multiset);
            if self.next == 0 {
                Rng::new(0, 3).shuffle(&mut self.round);
            } else {
                self.rng.shuffle(&mut self.round);
            }
        }
        self.next += 1;
        Some((self.next - 1, self.round[pos]))
    }
}

/// One answered request.
struct Answer {
    order: usize,
    circuit: usize,
    latency_ms: f64,
    reply: Result<Reply, String>,
}

/// What a response said; the report text is kept for misses only (hits
/// are compared by hash), so the client's memory stays small.
struct Reply {
    hit: bool,
    proof: bool,
    report_hash: u64,
    report: Option<String>,
}

/// Reads a response line (the envelope layout `rms serve` renders, with
/// the report as its last field).
fn reply(body: &str) -> Result<Reply, String> {
    let (envelope, report) = body
        .split_once("\"report\":")
        .and_then(|(e, r)| Some((e, r.strip_suffix('}')?)))
        .ok_or_else(|| format!("response without a report: {body}"))?;
    if !envelope.contains("\"status\":\"ok\"") {
        return Err(format!("error response: {body}"));
    }
    let hit = if envelope.contains("\"cache\":\"hit\"") {
        true
    } else if envelope.contains("\"cache\":\"miss\"") {
        false
    } else {
        return Err(format!("unexpected cache disposition: {envelope}"));
    };
    Ok(Reply {
        hit,
        proof: envelope.contains("\"proof\":true"),
        report_hash: fnv1a64(report.as_bytes()),
        report: (!hit).then(|| report.to_string()),
    })
}

/// What one measured window saw.
#[derive(Default)]
pub struct Window {
    /// Request latencies (ms), in the order the requests were handed out.
    pub latencies_ms: Vec<f64>,
    /// Request latencies (ms) per circuit.
    pub per_circuit_ms: Vec<Vec<f64>>,
    /// Wall time of the window.
    pub wall: Duration,
    /// Spans (traced windows only).
    pub trace: Trace,
    /// Cache hits seen in responses.
    pub hits: u64,
    /// Cache misses seen in responses (= pipeline runs).
    pub misses: u64,
    /// Distinct circuits requested.
    pub distinct: usize,
    /// Whole rounds of the request mix completed.
    pub rounds: usize,
    /// Responses carrying a proof (exhaustive or SAT).
    pub proved: u64,
    /// Journal size at the end of the window.
    pub journal_bytes: u64,
    /// Peak resident memory of the process at the end of the window.
    pub peak_rss_mb: f64,
    /// Input bytes parsed by the traced direct calls.
    pub parse_bytes: u64,
    /// Time spent replaying the traced window's requests layer by layer.
    pub replay_wall: Duration,
}

/// The serve-mix run: requests, checks, and (traced) layer times.
#[derive(Default)]
pub struct ServeRun {
    /// Jobs attempted and failed.
    pub tally: Tally,
    /// The untraced window.
    pub untraced: Window,
    /// The traced window (trace runs only).
    pub traced: Option<Window>,
    /// Output sizes per distinct circuit (from the independent check).
    pub sizes: SizeLedger,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Time to build the service and start the listener.
    pub setup: Duration,
    /// Time to reopen the filled cache directory (journal replay).
    pub replay: Option<Duration>,
    /// Requests sent per circuit.
    pub requests: Vec<u64>,
}

impl ServeRun {
    fn fail(&mut self, n: u64, msg: String) {
        self.tally.failed += n;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }
}

/// Direct calls into each serve layer for one answered request, made
/// after the window on `shadow`, a second service that sees the requests
/// in the order the server took them, so its hits and misses match the
/// server's. The round trip measured in the window is the parent span;
/// `http_ms` is the transport probe's time for this request body. What
/// neither the handler nor the transport explains (queueing and lock
/// contention between the clients) stays in the parent's self time,
/// attributed to no layer.
fn trace_request(
    trace: &mut Trace,
    shadow: &Service,
    line: &str,
    circuit: &Circuit,
    roundtrip_ms: f64,
    http_ms: f64,
) {
    let t = Instant::now();
    let parsed = Value::parse(line);
    let json = t.elapsed();
    let t = Instant::now();
    let netlist = input::parse_str(InputFormat::Blif, circuit.text(), "request");
    let parse = t.elapsed();
    let t = Instant::now();
    let hash = netlist.as_ref().map(netlist_structural_hash);
    let hashing = t.elapsed();
    std::hint::black_box((parsed.is_ok(), hash.ok()));
    let t = Instant::now();
    std::hint::black_box(shadow.handle_line(line));
    let handle = t.elapsed();
    let ms = |v: f64| Duration::from_secs_f64(v.max(0.0) / 1e3);
    let job = trace.record("job", None, ms(roundtrip_ms));
    trace.record("serve.http", Some(job), ms(http_ms));
    let h = trace.record("serve.handle", Some(job), handle);
    trace.record("serve.json", Some(h), json);
    trace.record("logic.parse", Some(h), parse);
    trace.record("serve.hash", Some(h), hashing);
}

fn client(addr: SocketAddr, lines: &[String], dispatch: &Mutex<Dispatch>) -> Vec<Answer> {
    let mut answers = Vec::new();
    loop {
        let next = dispatch.lock().expect("dispatch lock poisoned").take();
        let Some((order, i)) = next else { break };
        let t0 = Instant::now();
        let response = post(addr, &lines[i]);
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        answers.push(Answer {
            order,
            circuit: i,
            latency_ms,
            reply: response.and_then(|body| reply(&body)),
        });
    }
    answers
}

/// The request mix: circuits, their request lines, their weights per
/// round, and the seed that orders the rounds.
struct Mix<'a> {
    circuits: Vec<&'a Circuit>,
    lines: Vec<String>,
    weights: Vec<usize>,
    seed: u64,
}

/// Runs one measured window against a fresh server.
fn window(
    mix: &Mix,
    budget: Duration,
    traced: bool,
    run: &mut ServeRun,
    reports: &mut [Option<String>],
) -> io::Result<Window> {
    let dir = ScratchDir::new(if traced { "traced" } else { "serve" })?;
    let cache = dir.0.join("cache");
    let t0 = Instant::now();
    let server = Server::start(&cache)?;
    let setup = t0.elapsed();
    if !traced {
        run.setup = setup;
    }
    let dispatch = Mutex::new(Dispatch::new(&mix.weights, mix.seed, budget));
    crate::reset_peak_rss();
    let start = Instant::now();
    let mut answers: Vec<Answer> = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| s.spawn(|| client(server.addr, &mix.lines, &dispatch)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut w = Window {
        wall: start.elapsed(),
        per_circuit_ms: vec![Vec::new(); mix.circuits.len()],
        ..Window::default()
    };
    w.peak_rss_mb = crate::peak_rss_mb();
    w.journal_bytes = std::fs::metadata(cache.join(JOURNAL_FILE)).map_or(0, |m| m.len());
    // The transport probe goes to the live server, after the window.
    let http_ms: Vec<Result<f64, String>> = if traced {
        mix.lines
            .iter()
            .map(|l| http_probe(server.addr, l))
            .collect()
    } else {
        Vec::new()
    };
    server.stop()?;
    answers.sort_by_key(|a| a.order);

    for a in &answers {
        let name = &mix.circuits[a.circuit].name;
        run.tally.attempted += 1;
        run.requests[a.circuit] += 1;
        w.latencies_ms.push(a.latency_ms);
        w.per_circuit_ms[a.circuit].push(a.latency_ms);
        match &a.reply {
            Err(e) => run.fail(1, format!("{name}: {e}")),
            Ok(r) => {
                w.hits += u64::from(r.hit);
                w.misses += u64::from(!r.hit);
                w.proved += u64::from(r.proof);
                if let (None, Some(report)) = (&reports[a.circuit], &r.report) {
                    reports[a.circuit] = Some(report.clone());
                }
                match &reports[a.circuit] {
                    Some(first) if fnv1a64(first.as_bytes()) == r.report_hash => {}
                    _ => run.fail(1, format!("{name}: response report differs from the miss")),
                }
            }
        }
    }
    w.distinct = w.per_circuit_ms.iter().filter(|v| !v.is_empty()).count();
    w.rounds = answers.len() / mix.weights.iter().sum::<usize>().max(1);

    if traced {
        let t0 = Instant::now();
        let shadow = Service::new(config(&dir.0.join("shadow")));
        for a in &answers {
            let c = mix.circuits[a.circuit];
            let http = match &http_ms[a.circuit] {
                Ok(ms) => *ms,
                Err(e) => {
                    run.fail(1, format!("{}: {e}", c.name));
                    0.0
                }
            };
            trace_request(
                &mut w.trace,
                &shadow,
                &mix.lines[a.circuit],
                c,
                a.latency_ms,
                http,
            );
            w.parse_bytes += c.bytes.len() as u64;
        }
        shadow.shutdown();
        w.replay_wall = t0.elapsed();
        let t0 = Instant::now();
        let reopened = Service::new(config(&cache));
        run.replay = Some(t0.elapsed());
        let replayed = reopened.replay_stats().map_or(0, |s| s.replayed);
        if replayed != w.distinct {
            run.fail(
                1,
                format!(
                    "journal replay restored {replayed} entries, expected {}",
                    w.distinct
                ),
            );
        }
    }
    Ok(w)
}

/// The report the service must return for `c`, computed by the
/// benchmark's own pipeline run, plus the checked output size.
fn expected_report(c: &Circuit, words: usize, seed: u64) -> Result<(String, Size), String> {
    let out = Pipeline::from_str(InputFormat::Blif, c.text(), "request")
        .and_then(|p| {
            p.algorithm(Algorithm::Cut)
                .effort(OptOptions::default().effort)
                .run()
        })
        .map_err(|e| e.to_string())?;
    let size = check::check_flow_output(&c.reference, &out, words, seed)?;
    let mut report = out.report;
    report.timings = StageTimings::default();
    Ok((render_json(&report).trim_end().to_string(), size))
}

/// Runs the serve mix. Without `traced`, one window of `seconds`; with
/// it, an untraced window of two thirds of that and a traced window of
/// one third.
pub fn run(
    suite: &[(Circuit, usize)],
    seed: u64,
    seconds: u64,
    traced: bool,
) -> io::Result<ServeRun> {
    let weights: Vec<usize> = suite.iter().map(|(_, w)| *w).collect();
    let circuits: Vec<&Circuit> = suite.iter().map(|(c, _)| c).collect();
    let lines = circuits
        .iter()
        .enumerate()
        .map(|(i, c)| request_line(i, c))
        .collect();
    let mix = Mix {
        circuits,
        lines,
        weights,
        seed,
    };
    let mut run = ServeRun {
        requests: vec![0; mix.circuits.len()],
        ..ServeRun::default()
    };
    let mut reports: Vec<Option<String>> = vec![None; mix.circuits.len()];
    // The traced window's requests are replayed one by one afterwards,
    // which costs about as much again, so it gets a third of the time.
    let total = Duration::from_secs(seconds);
    let traced_budget = total / 3;
    let budget = if traced { total - traced_budget } else { total };
    run.untraced = window(&mix, budget, false, &mut run, &mut reports)?;
    if traced {
        let w = window(&mix, traced_budget, true, &mut run, &mut reports)?;
        run.traced = Some(w);
    }

    // Independent check of every circuit answered: the service's report
    // must be the benchmark's own pipeline report, whose programs replay
    // correctly against the reference netlist. A failed check fails
    // every request for that circuit.
    for (i, c) in mix.circuits.iter().enumerate() {
        let Some(served) = &reports[i] else { continue };
        let check_seed = Rng::new(seed, 100 + i as u64).next_u64();
        let requests = run.requests[i];
        match expected_report(c, 2, check_seed) {
            Ok((expected, size)) if expected == *served => {
                if let Err(e) = run.sizes.observe(&c.name, size) {
                    run.fail(requests, e);
                }
            }
            Ok(_) => run.fail(
                requests,
                format!("{}: served report differs from the pipeline's", c.name),
            ),
            Err(e) => run.fail(requests, format!("{}: {e}", c.name)),
        }
    }
    Ok(run)
}

/// Set-up of a fresh server, for the set-up probe.
pub fn setup_once() -> io::Result<Duration> {
    let dir = ScratchDir::new("setup")?;
    let t0 = Instant::now();
    let server = Server::start(&dir.0.join("cache"))?;
    let setup = t0.elapsed();
    server.stop()?;
    Ok(setup)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_are_classified() {
        let miss = r#"{"protocol":"rms-serve-v1","id":"c0","status":"ok","cache":"miss","provenance":{"proof":true},"report":{"a":1}}"#;
        let r = reply(miss).unwrap();
        assert!(!r.hit && r.proof);
        assert_eq!(r.report.as_deref(), Some(r#"{"a":1}"#));
        let hit = miss.replace("\"miss\"", "\"hit\"");
        let h = reply(&hit).unwrap();
        assert!(h.hit && h.report.is_none());
        assert_eq!(h.report_hash, r.report_hash);
        let error =
            r#"{"protocol":"rms-serve-v1","id":"c0","status":"error","kind":"bad_request"}"#;
        assert!(reply(error).is_err());
        assert!(reply(&miss.replace("\"ok\"", "\"error\"")).is_err());
    }

    #[test]
    fn dispatch_hands_out_whole_shuffled_rounds() {
        let weights = [3, 1, 2];
        let mut d = Dispatch::new(&weights, 5, Duration::ZERO);
        let mut round: Vec<usize> = (0..6)
            .map(|_| d.take().unwrap())
            .map(|(pos, i)| {
                assert!(pos < 6);
                i
            })
            .collect();
        // The budget is spent, so the next round boundary ends the run.
        assert_eq!(d.take(), None);
        assert_eq!(d.take(), None);
        round.sort_unstable();
        assert_eq!(round, [0, 0, 0, 1, 2, 2]);
    }
}
