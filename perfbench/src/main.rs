//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --quiet --config 'build.rustflags=["-C","llvm-args=-align-loops=64"]' \
//!     --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-rram|large-cut|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Every line but the last on standard output is a JSON object describing
//! the run (header, details, per-layer table); the last line is the
//! result: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`, with
//! the end-to-end metrics when `--trace 0` and the per-layer metrics when
//! `--trace 1`. The exit code is 0 only when every output passed its
//! independent check. See `README.md` beside this file.

mod check;
mod flow;
mod inputs;
mod serve;
mod stats;
mod trace;

use rms_core::opt::{Algorithm, OptOptions};
use rms_flow::{InputFormat, VerifyMode};
use stats::{json_str, median, tail_percentile, Metrics, Tally};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::LayerTime;

const USAGE: &str = "usage: perfbench --workload paper-rram|large-cut|serve-mix \
                     --seed N --seconds S --trace 0|1";

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["paper-rram", "large-cut", "serve-mix"];

/// Set-up is measured this many times per run (this process plus fresh
/// child processes) and reported as the median.
const SETUP_SAMPLES: usize = 15;

/// The traced run must attribute this share of the untraced job time to
/// the named layers, give or take the tolerance.
const ATTRIBUTION_TOLERANCE_PCT: f64 = 15.0;

#[derive(Debug, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--setup-probe") {
        return setup_probe(argv.get(1).map(String::as_str));
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Child-process mode: measures one cold set-up and prints its seconds.
fn setup_probe(workload: Option<&str>) -> ExitCode {
    match setup(workload == Some("serve-mix")) {
        Ok((total, _)) => {
            println!("{}", total.as_secs_f64());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: set-up probe failed: {e}");
            ExitCode::from(1)
        }
    }
}

/// Everything before the first job can be submitted: the NPN database
/// (`rms_cut::prewarm`), and for the serve mix also `Service::new` and
/// the HTTP listener. Returns (total, NPN database time).
fn setup(serve: bool) -> std::io::Result<(Duration, Duration)> {
    let t0 = Instant::now();
    rms_cut::prewarm();
    let npn = t0.elapsed();
    let server = if serve {
        serve::setup_once()?
    } else {
        Duration::ZERO
    };
    Ok((npn + server, npn))
}

/// Measures set-up `SETUP_SAMPLES - 1` more times in fresh processes.
fn setup_samples(workload: &str, first: Duration) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut samples = vec![first.as_secs_f64()];
    for _ in 1..SETUP_SAMPLES {
        let out = Command::new(&exe)
            .args(["--setup-probe", workload])
            .output()
            .map_err(|e| format!("set-up probe: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "set-up probe failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        samples.push(
            text.trim()
                .parse()
                .map_err(|_| format!("set-up probe printed {text:?}"))?,
        );
    }
    Ok(samples)
}

/// Resets the process's peak resident memory to its current resident
/// memory, so that a later [`peak_rss_mb`] covers only what follows
/// (the memory of generating and serializing the inputs drops out).
/// Where the kernel does not offer the reset, the peak keeps counting
/// from the process's start.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the checkout was made from, read from `.git` when the
/// working directory is a git checkout.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// The configuration a workload runs with, for the header.
struct Config {
    algorithm: Algorithm,
    effort: usize,
    verify: VerifyMode,
    format: InputFormat,
    clients: usize,
}

fn config(workload: &str) -> Config {
    match workload {
        "paper-rram" => Config {
            algorithm: Algorithm::RramCosts,
            effort: 40,
            verify: VerifyMode::Auto,
            format: InputFormat::Blif,
            clients: 1,
        },
        "large-cut" => Config {
            algorithm: Algorithm::Cut,
            effort: 2,
            verify: VerifyMode::Sampled,
            format: InputFormat::Aiger,
            clients: 1,
        },
        _ => Config {
            algorithm: Algorithm::Cut,
            effort: OptOptions::default().effort,
            verify: VerifyMode::Auto,
            format: InputFormat::Blif,
            clients: serve::CLIENTS,
        },
    }
}

fn header(args: &Args, cfg: &Config) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"perfbench\":\"header\",\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"cores\":{cores},\"git_revision\":{},\"rustc\":{},\"algorithm\":{},\"realization\":\"maj\",\
         \"effort\":{},\"verify\":{},\"input_format\":{},\"optimizer_jobs\":\"0 (auto: {cores} cores)\",\
         \"clients\":{},\"loop\":\"closed\"}}",
        json_str(args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&git_revision()),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        json_str(cfg.algorithm.token()),
        cfg.effort,
        json_str(&cfg.verify.to_string()),
        json_str(&format!("{:?}", cfg.format).to_lowercase()),
        cfg.clients,
    )
}

/// What every workload reports, whatever its shape.
#[derive(Default)]
struct Measured {
    tally: Tally,
    latencies_ms: Vec<f64>,
    latency_p50_ms: f64,
    jobs_per_s: f64,
    proved: u64,
    sizes: check::Size,
    failures: Vec<String>,
    peak_rss_mb: f64,
    rounds: usize,
    /// Extra JSON fields for the detail line.
    extra: String,
}

fn run(args: &Args) -> Result<bool, String> {
    let cfg = config(args.workload);
    println!("{}", header(args, &cfg));
    let io = |e: std::io::Error| e.to_string();

    let (measured, setup_samples, layers) = if args.workload == "serve-mix" {
        let suite = inputs::serve_suite();
        let (_, npn) = setup(false).map_err(io)?;
        let run = serve::run(&suite, args.seed, args.seconds, args.trace).map_err(io)?;
        let peak = run.untraced.peak_rss_mb;
        let setup_first = npn + run.setup;
        let samples = setup_samples(args.workload, setup_first)?;
        let layers = run.traced.as_ref().map(|t| serve_layers(&run, t, npn));
        let circuit_ms = circuit_medians(
            suite.iter().map(|(c, _)| c.name.as_str()),
            &run.untraced.per_circuit_ms,
        );
        let m = Measured {
            tally: run.tally,
            latency_p50_ms: median(&run.untraced.latencies_ms).unwrap_or(0.0),
            jobs_per_s: run.untraced.latencies_ms.len() as f64
                / run.untraced.wall.as_secs_f64().max(1e-9),
            latencies_ms: run.untraced.latencies_ms.clone(),
            proved: run.untraced.proved,
            sizes: run.sizes.total(),
            failures: run.failures,
            peak_rss_mb: peak,
            rounds: run.untraced.rounds,
            extra: format!(
                "\"hits\":{},\"misses\":{},\"distinct_keys\":{},{circuit_ms}",
                run.untraced.hits, run.untraced.misses, run.untraced.distinct
            ),
        };
        (m, samples, layers)
    } else {
        let circuits = if args.workload == "paper-rram" {
            inputs::paper_suite()
        } else {
            inputs::large_suite()
        };
        let workload = flow::FlowWorkload {
            algorithm: cfg.algorithm,
            effort: cfg.effort,
            verify: cfg.verify,
            format: cfg.format,
            check_words: if args.workload == "paper-rram" { 4 } else { 1 },
            circuits,
        };
        let (setup_first, npn) = setup(false).map_err(io)?;
        reset_peak_rss();
        let run = workload.run(args.seed, args.seconds, args.trace);
        let peak = peak_rss_mb();
        let samples = setup_samples(args.workload, setup_first)?;
        let layers = args.trace.then(|| flow_layers(&run, npn));
        let m = Measured {
            tally: run.tally,
            latency_p50_ms: flow::FlowWorkload::latency_p50(&run),
            jobs_per_s: median(&run.pass_rates).unwrap_or(0.0),
            latencies_ms: run.latencies_ms.clone(),
            proved: run.proved,
            sizes: run.sizes.total(),
            failures: run.failures,
            peak_rss_mb: peak,
            rounds: run.passes,
            extra: format!(
                "\"pass_jobs_per_s\":{:?},{}",
                run.pass_rates,
                circuit_medians(
                    workload.circuits.iter().map(|c| c.name.as_str()),
                    &run.per_circuit_ms
                )
            ),
        };
        (m, samples, layers)
    };

    for f in &measured.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    let n = measured.latencies_ms.len();
    let p90 = tail_percentile(&measured.latencies_ms, 90.0);
    println!(
        "{{\"perfbench\":\"detail\",\"jobs\":{},\"failed\":{},\"passes_or_rounds\":{},\"latency_samples\":{n},\
         \"latency_ms_p90\":{},\"p90_samples_beyond\":{},\"proved_share\":{},\"failed_share\":{},\
         \"setup_samples_s\":{:?},{},\"failures\":[{}]}}",
        measured.tally.attempted,
        measured.tally.failed,
        measured.rounds,
        p90.map_or("null".to_string(), |v| v.to_string()),
        stats::samples_beyond(n, 90.0),
        measured.proved as f64 / n.max(1) as f64,
        measured.tally.failed_share(),
        setup_samples,
        measured.extra,
        measured
            .failures
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(",")
    );

    let metrics = match layers {
        Some(layers) => {
            println!("{}", layers.table);
            layers.metrics
        }
        None => end_to_end(&measured, &setup_samples),
    };
    println!("{}", stats::result_line(measured.tally, &metrics));
    Ok(measured.tally.correct())
}

/// `"circuit_median_ms":{name:median,…}` for the detail line.
fn circuit_medians<'a>(names: impl Iterator<Item = &'a str>, ms: &[Vec<f64>]) -> String {
    let fields: Vec<String> = names
        .zip(ms)
        .map(|(n, v)| format!("{}:{}", json_str(n), median(v).unwrap_or(0.0)))
        .collect();
    format!("\"circuit_median_ms\":{{{}}}", fields.join(","))
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(measured: &Measured, setup_samples: &[f64]) -> Metrics {
    let mut m = Metrics::default();
    m.push("setup_s", median(setup_samples).unwrap_or(0.0), "s");
    m.push("latency_ms_p50", measured.latency_p50_ms, "ms");
    m.push("jobs_per_s", measured.jobs_per_s, "1/s");
    m.push("peak_rss_mb", measured.peak_rss_mb, "MB");
    let s = measured.sizes;
    m.push("mig_gates", s.mig_gates as f64, "count");
    m.push("rram_devices", s.rram_devices as f64, "count");
    m.push("rram_steps", s.rram_steps as f64, "count");
    m.push("plim_instructions", s.plim_instructions as f64, "count");
    m
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A
/// layer that a workload does not touch reports 0.
const PER_LAYER: [(&str, &str); 34] = [
    ("logic.parse_ms", "ms"),
    ("logic.parse_mb_per_s", "MB/s"),
    ("core.construct_ms", "ms"),
    ("core.optimize_ms", "ms"),
    ("core.cycles", "count"),
    ("core.passes", "count"),
    ("cut.enum_ms", "ms"),
    ("cut.eval_ms", "ms"),
    ("cut.commit_ms", "ms"),
    ("cut.gc_ms", "ms"),
    ("cut.rewrites", "count"),
    ("cut.peak_nodes", "count"),
    ("cut.npn_db_ms", "ms"),
    ("rram.compile_ms", "ms"),
    ("flow.verify_ms", "ms"),
    ("flow.verify_exhaustive", "count"),
    ("flow.verify_sat", "count"),
    ("flow.verify_sampled", "count"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("serve.json_ms", "ms"),
    ("serve.hash_ms", "ms"),
    ("serve.handle_ms", "ms"),
    ("serve.http_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.pipeline_runs", "count"),
    ("serve.distinct_keys", "count"),
    ("serve.journal_bytes", "bytes"),
    ("serve.replay_ms", "ms"),
    ("trace.job_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.attributed_pct", "%"),
];

/// The traced run's per-layer metrics and its share table.
struct Layers {
    metrics: Metrics,
    table: String,
}

impl Layers {
    /// Fills [`PER_LAYER`] from the measured `values`; the layer table
    /// attributes the untraced job time to the `rows` (self ms per job).
    fn new(
        values: &[(&str, f64)],
        rows: &[(&str, f64)],
        untraced_ms: f64,
        overhead_pct: f64,
    ) -> Layers {
        let share = |ms: f64| 100.0 * ms / untraced_ms.max(1e-12);
        let attributed_pct = share(rows.iter().map(|(_, ms)| ms).sum());
        let within = (attributed_pct - 100.0).abs() <= ATTRIBUTION_TOLERANCE_PCT;
        let rows_json: Vec<String> = rows
            .iter()
            .map(|(name, ms)| {
                format!(
                    "{{\"layer\":{},\"self_ms_per_job\":{ms},\"share_pct\":{}}}",
                    json_str(name),
                    share(*ms)
                )
            })
            .collect();
        let table = format!(
            "{{\"perfbench\":\"layers\",\"untraced_job_ms\":{untraced_ms},\
             \"overhead_pct\":{overhead_pct},\"attributed_pct\":{attributed_pct},\
             \"tolerance_pct\":{ATTRIBUTION_TOLERANCE_PCT},\"attributed_within_tolerance\":{within},\
             \"layers\":[{}]}}",
            rows_json.join(",")
        );
        let trace = [
            ("trace.job_ms", untraced_ms),
            ("trace.overhead_pct", overhead_pct),
            ("trace.attributed_pct", attributed_pct),
        ];
        for (name, _) in values {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "{name} is not a layer metric"
            );
        }
        let mut metrics = Metrics::default();
        for (name, unit) in PER_LAYER {
            let value = values
                .iter()
                .chain(&trace)
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            metrics.push(name, value, unit);
        }
        Layers { metrics, table }
    }
}

/// Per-job self time of a span name (ms).
fn per_job(summary: &BTreeMap<&str, LayerTime>, name: &str, jobs: f64) -> f64 {
    summary.get(name).map_or(0.0, |l| l.self_ms) / jobs
}

/// Input throughput of the parse layer.
fn mb_per_s(bytes: u64, parse_ms: f64, jobs: f64) -> f64 {
    bytes as f64 / 1e6 / (parse_ms * jobs / 1e3).max(1e-12)
}

fn flow_layers(run: &flow::FlowRun, npn: Duration) -> Layers {
    let summary = run.trace.summary();
    let jobs = summary.get("job").map_or(0, |l| l.count).max(1) as f64;
    let passes = run.traced_passes.max(1) as f64;
    let c = &run.counters;
    let rows = [
        ("logic.parse", per_job(&summary, "logic.parse", jobs)),
        ("core.construct", per_job(&summary, "core.construct", jobs)),
        ("core.optimize", per_job(&summary, "core.optimize", jobs)),
        ("rram.compile", per_job(&summary, "rram.compile", jobs)),
        ("flow.verify", per_job(&summary, "flow.verify", jobs)),
    ];
    let pass_ms = |wall: Duration, n: usize| wall.as_secs_f64() * 1e3 / n.max(1) as f64;
    let untraced_pass_ms = pass_ms(run.untraced_wall, run.passes);
    let overhead_pct = 100.0 * (pass_ms(run.traced_wall, run.traced_passes) - untraced_pass_ms)
        / untraced_pass_ms.max(1e-12);
    let ms = |ns: u64| ns as f64 / 1e6 / jobs;
    let values = [
        ("logic.parse_ms", rows[0].1),
        (
            "logic.parse_mb_per_s",
            mb_per_s(c.parse_bytes, rows[0].1, jobs),
        ),
        ("core.construct_ms", rows[1].1),
        ("core.optimize_ms", rows[2].1),
        ("core.cycles", c.cycles as f64 / jobs),
        ("core.passes", c.passes as f64 / jobs),
        ("cut.enum_ms", ms(c.enum_ns)),
        ("cut.eval_ms", ms(c.eval_ns)),
        ("cut.commit_ms", ms(c.commit_ns)),
        ("cut.gc_ms", ms(c.gc_ns)),
        ("cut.rewrites", c.rewrites as f64 / jobs),
        ("cut.peak_nodes", c.peak_nodes as f64),
        ("cut.npn_db_ms", npn.as_secs_f64() * 1e3),
        ("rram.compile_ms", rows[3].1),
        ("flow.verify_ms", rows[4].1),
        (
            "flow.verify_exhaustive",
            c.verify_exhaustive as f64 / passes,
        ),
        ("flow.verify_sat", c.verify_sat as f64 / passes),
        ("flow.verify_sampled", c.verify_sampled as f64 / passes),
        ("sat.conflicts", c.sat_conflicts as f64 / passes),
        ("sat.decisions", c.sat_decisions as f64 / passes),
    ];
    Layers::new(&values, &rows, mean(&run.latencies_ms), overhead_pct)
}

fn serve_layers(run: &serve::ServeRun, t: &serve::Window, npn: Duration) -> Layers {
    let summary = t.trace.summary();
    let jobs = summary.get("job").map_or(0, |l| l.count).max(1) as f64;
    let rows = [
        ("serve.json", per_job(&summary, "serve.json", jobs)),
        ("logic.parse", per_job(&summary, "logic.parse", jobs)),
        ("serve.hash", per_job(&summary, "serve.hash", jobs)),
        ("serve.handle", per_job(&summary, "serve.handle", jobs)),
        ("serve.http", per_job(&summary, "serve.http", jobs)),
    ];
    // The traced window is shorter, so its one-off misses weigh more:
    // compare it with the same number of leading untraced requests.
    let u = &run.untraced;
    let untraced_ms = mean(&u.latencies_ms[..t.latencies_ms.len().min(u.latencies_ms.len())]);
    // Tracing cost: the window plus the layer-by-layer replay after it.
    let per_request = |wall: Duration, w: &serve::Window| {
        wall.as_secs_f64() * 1e3 / w.latencies_ms.len().max(1) as f64
    };
    let untraced_per_request = per_request(u.wall, u);
    let overhead_pct = 100.0 * (per_request(t.wall + t.replay_wall, t) - untraced_per_request)
        / untraced_per_request.max(1e-12);
    let values = [
        ("logic.parse_ms", rows[1].1),
        (
            "logic.parse_mb_per_s",
            mb_per_s(t.parse_bytes, rows[1].1, jobs),
        ),
        ("cut.npn_db_ms", npn.as_secs_f64() * 1e3),
        ("serve.json_ms", rows[0].1),
        ("serve.hash_ms", rows[2].1),
        ("serve.handle_ms", rows[3].1),
        ("serve.http_ms", rows[4].1),
        ("serve.cache_hits", t.hits as f64),
        ("serve.cache_misses", t.misses as f64),
        (
            "serve.hit_ratio",
            t.hits as f64 / (t.hits + t.misses).max(1) as f64,
        ),
        ("serve.pipeline_runs", t.misses as f64),
        ("serve.distinct_keys", t.distinct as f64),
        ("serve.journal_bytes", t.journal_bytes as f64),
        (
            "serve.replay_ms",
            run.replay.map_or(0.0, |d| d.as_secs_f64() * 1e3),
        ),
    ];
    Layers::new(&values, &rows, untraced_ms, overhead_pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_parse() {
        let a = parse_args(&argv(
            "--workload large-cut --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "large-cut",
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload large-cut --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload large-cut --seed 1 --seconds 1")).is_err());
    }

    #[test]
    fn workload_and_metric_names_follow_the_grammar() {
        for w in WORKLOADS {
            assert!(stats::valid_name(w));
        }
        for (name, unit) in PER_LAYER {
            assert!(stats::valid_name(name) && stats::valid_unit(unit), "{name}");
        }
    }

    /// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
    fn contract(list: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let v = rms_serve::json::Value::parse(&text).expect("BENCHMARK.json is JSON");
        v.get(list)
            .and_then(|l| l.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(|x| x.as_str()).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn reported_metrics_are_the_contracts() {
        let e2e = end_to_end(&Measured::default(), &[1.0]);
        assert_eq!(e2e.named_units(), contract("end_to_end"));
        let layers = flow_layers(&flow::FlowRun::default(), Duration::from_millis(1));
        assert_eq!(layers.metrics.named_units(), contract("per_layer"));
    }

    #[test]
    fn serve_round_trip_time_outside_every_layer_stays_unattributed() {
        // A 10 ms round trip of which the transport explains 1 ms and
        // the handler 2 ms: the other 7 ms (queueing, contention) belong
        // to no layer, so only 30 % is attributed, outside the tolerance.
        let mut traced = serve::Window {
            latencies_ms: vec![10.0],
            ..serve::Window::default()
        };
        let t = &mut traced.trace;
        let job = t.record("job", None, Duration::from_millis(10));
        t.record("serve.http", Some(job), Duration::from_millis(1));
        let handle = t.record("serve.handle", Some(job), Duration::from_millis(2));
        t.record("serve.json", Some(handle), Duration::from_micros(500));
        let mut run = serve::ServeRun::default();
        run.untraced.latencies_ms = vec![10.0];
        let layers = serve_layers(&run, &traced, Duration::from_millis(1));
        assert!(
            layers.table.contains("\"attributed_pct\":30"),
            "{}",
            layers.table
        );
        assert!(layers
            .table
            .contains("\"attributed_within_tolerance\":false"));
    }

    #[test]
    fn flow_and_serve_runs_report_the_same_layer_metrics() {
        let flow_run = flow::FlowRun::default();
        let flow = flow_layers(&flow_run, Duration::from_millis(1)).metrics;
        let window = serve::Window::default();
        let serve_run = serve::ServeRun::default();
        let serve = serve_layers(&serve_run, &window, Duration::from_millis(1)).metrics;
        assert_eq!(flow.named_units(), serve.named_units());
    }
}
