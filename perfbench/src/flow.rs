//! The single-client synthesis workloads: `paper-rram` and `large-cut`.
//!
//! A job is one circuit, from its serialized bytes to a verified result
//! (`Pipeline::from_bytes(..).run()`). Jobs run in whole passes over the
//! workload's circuits, each pass in a seeded order, until the run's time
//! is used up; whole passes keep the mix of circuits, and so the latency
//! distribution, the same for every seed.

use crate::check::{self, SizeLedger};
use crate::inputs::{Circuit, Rng};
use crate::stats::Tally;
use crate::trace::Trace;
use rms_core::opt::{Algorithm, OptOptions};
use rms_core::{Mig, Realization};
use rms_flow::{
    input, run_algorithm_engine, Engine, FlowOutput, InputFormat, Pipeline, VerifyMode,
    VerifyOutcome,
};
use rms_rram::compile::compile;
use rms_rram::plim::compile_plim;
use std::time::{Duration, Instant};

/// One synthesis workload's fixed configuration.
pub struct FlowWorkload {
    /// Optimization algorithm.
    pub algorithm: Algorithm,
    /// Optimization effort (cycles).
    pub effort: usize,
    /// Verification policy.
    pub verify: VerifyMode,
    /// Format the circuits are sent in.
    pub format: InputFormat,
    /// 64-pattern words replayed per program by the independent check.
    pub check_words: usize,
    /// The circuits, in their fixed order.
    pub circuits: Vec<Circuit>,
}

/// Counters the traced run collects from the program's own reports.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Optimizer cycles.
    pub cycles: u64,
    /// Optimizer passes.
    pub passes: u64,
    /// Cut rewrites committed.
    pub rewrites: u64,
    /// Largest node count the cut engine held.
    pub peak_nodes: u64,
    /// Cut enumeration time, summed over windows and workers.
    pub enum_ns: u64,
    /// Candidate evaluation time, summed over windows and workers.
    pub eval_ns: u64,
    /// Commit time.
    pub commit_ns: u64,
    /// Garbage-collection time.
    pub gc_ns: u64,
    /// Jobs verified by exhaustive simulation.
    pub verify_exhaustive: u64,
    /// Jobs verified by a SAT proof.
    pub verify_sat: u64,
    /// Jobs verified by sampling.
    pub verify_sampled: u64,
    /// SAT conflicts over all proofs.
    pub sat_conflicts: u64,
    /// SAT decisions over all proofs.
    pub sat_decisions: u64,
    /// Input bytes parsed.
    pub parse_bytes: u64,
}

impl Counters {
    fn add_verify(&mut self, v: &VerifyOutcome) {
        match v {
            VerifyOutcome::Exhaustive => self.verify_exhaustive += 1,
            VerifyOutcome::Proved {
                conflicts,
                decisions,
            } => {
                self.verify_sat += 1;
                self.sat_conflicts += conflicts;
                self.sat_decisions += decisions;
            }
            VerifyOutcome::Sampled { .. } => self.verify_sampled += 1,
            VerifyOutcome::Skipped | VerifyOutcome::Failed { .. } => {}
        }
    }
}

/// What a flow run measured.
#[derive(Default)]
pub struct FlowRun {
    /// Jobs attempted and failed in the untraced passes.
    pub tally: Tally,
    /// Untraced job latencies (ms), in run order.
    pub latencies_ms: Vec<f64>,
    /// Untraced job latencies (ms) per circuit, over the passes.
    pub per_circuit_ms: Vec<Vec<f64>>,
    /// Jobs per second of each untraced pass (checks excluded).
    pub pass_rates: Vec<f64>,
    /// Jobs whose verification was a proof.
    pub proved: u64,
    /// Output sizes per distinct circuit.
    pub sizes: SizeLedger,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Untraced passes completed.
    pub passes: usize,
    /// Wall time of the untraced passes, checks excluded.
    pub untraced_wall: Duration,
    /// Traced passes completed.
    pub traced_passes: usize,
    /// Wall time of the traced passes, checks excluded.
    pub traced_wall: Duration,
    /// Spans of the traced passes.
    pub trace: Trace,
    /// Counters of the traced passes.
    pub counters: Counters,
}

impl FlowRun {
    fn fail(&mut self, msg: String) {
        self.tally.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }
}

impl FlowWorkload {
    fn pipeline(&self, p: Pipeline) -> Pipeline {
        p.algorithm(self.algorithm)
            .realization(Realization::Maj)
            .effort(self.effort)
            .verify_mode(self.verify)
    }

    /// One untraced job: input bytes to a verified result.
    fn job(&self, c: &Circuit) -> Result<FlowOutput, String> {
        Pipeline::from_bytes(self.format, &c.bytes, &c.name)
            .and_then(|p| self.pipeline(p).run())
            .map_err(|e| e.to_string())
    }

    /// One traced job: each layer is called directly and timed. The
    /// verification stage is private to the pipeline, so a second,
    /// untimed-by-layer pipeline run supplies its time from the
    /// pipeline's own stage timings; that rerun is tracing overhead.
    fn traced_job(
        &self,
        c: &Circuit,
        trace: &mut Trace,
        counters: &mut Counters,
    ) -> Result<FlowOutput, String> {
        let job = trace.begin("job", None);
        let (netlist, _) = trace.time("logic.parse", Some(job), || {
            input::parse_bytes(self.format, &c.bytes, &c.name)
        });
        let netlist = netlist.map_err(|e| e.to_string())?;
        counters.parse_bytes += c.bytes.len() as u64;
        let (mig, _) = trace.time("core.construct", Some(job), || Mig::from_netlist(&netlist));
        let options = OptOptions {
            effort: self.effort,
            ..OptOptions::paper()
        };
        let ((optimized, stats), _) = trace.time("core.optimize", Some(job), || {
            run_algorithm_engine(
                &mig,
                self.algorithm,
                Realization::Maj,
                &options,
                Engine::default(),
            )
        });
        trace.time("rram.compile", Some(job), || {
            (
                compile(&optimized, Realization::Maj),
                compile_plim(&optimized),
            )
        });
        let pipeline = self.pipeline(Pipeline::new(netlist));
        let (out, rerun) = trace.time("trace.rerun", Some(job), || pipeline.run());
        let out = out.map_err(|e| e.to_string())?;
        trace.record("flow.verify", Some(rerun), out.report.timings.verify);
        trace.end(job);

        counters.cycles += stats.cycles as u64;
        counters.passes += stats.passes;
        counters.rewrites += stats.rewrites;
        counters.peak_nodes = counters.peak_nodes.max(stats.peak_nodes);
        counters.enum_ns += stats.t_cut_enum_ns;
        counters.eval_ns += stats.t_eval_ns;
        counters.commit_ns += stats.t_commit_ns;
        counters.gc_ns += stats.t_gc_ns;
        counters.add_verify(&out.report.verify);
        if optimized.num_gates() != out.mig.num_gates() {
            return Err(format!(
                "{}: direct optimizer call gave {} gates, the pipeline {}",
                c.name,
                optimized.num_gates(),
                out.mig.num_gates()
            ));
        }
        Ok(out)
    }

    /// Runs whole passes until `seconds` have passed (at least one). With
    /// `traced`, each untraced pass is followed by a traced pass over the
    /// same order.
    pub fn run(&self, seed: u64, seconds: u64, traced: bool) -> FlowRun {
        let mut run = FlowRun {
            per_circuit_ms: vec![Vec::new(); self.circuits.len()],
            ..FlowRun::default()
        };
        let mut order_rng = Rng::new(seed, 1);
        let start = Instant::now();
        let budget = Duration::from_secs(seconds);
        loop {
            let mut order: Vec<usize> = (0..self.circuits.len()).collect();
            order_rng.shuffle(&mut order);
            let mut pass_busy = Duration::ZERO;
            for &i in &order {
                let c = &self.circuits[i];
                let t0 = Instant::now();
                let out = self.job(c);
                let elapsed = t0.elapsed();
                pass_busy += elapsed;
                run.tally.attempted += 1;
                run.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
                run.per_circuit_ms[i].push(elapsed.as_secs_f64() * 1e3);
                let check_seed = Rng::new(seed, (run.passes * 1000 + i) as u64 + 2).next_u64();
                match out.and_then(|o| self.check(c, &o, check_seed).map(|s| (o, s))) {
                    Ok((o, size)) => {
                        run.proved += u64::from(o.report.verify.is_proof());
                        if let Err(e) = run.sizes.observe(&c.name, size) {
                            run.fail(e);
                        }
                    }
                    Err(e) => run.fail(format!("{}: {e}", c.name)),
                }
            }
            run.passes += 1;
            run.untraced_wall += pass_busy;
            run.pass_rates
                .push(order.len() as f64 / pass_busy.as_secs_f64().max(1e-9));
            if traced {
                let t0 = Instant::now();
                for &i in &order {
                    let c = &self.circuits[i];
                    run.tally.attempted += 1;
                    if let Err(e) = self.traced_job(c, &mut run.trace, &mut run.counters) {
                        run.fail(format!("{} (traced): {e}", c.name));
                    }
                }
                run.traced_wall += t0.elapsed();
                run.traced_passes += 1;
            }
            if start.elapsed() >= budget {
                break;
            }
        }
        run
    }

    /// The median circuit's typical latency: each circuit's median over
    /// the passes, then the median over circuits. Every circuit runs once
    /// per pass, so this estimates the median job time while shrugging
    /// off a pass slowed by something outside the program.
    pub fn latency_p50(run: &FlowRun) -> f64 {
        let per_circuit: Vec<f64> = run
            .per_circuit_ms
            .iter()
            .filter_map(|v| crate::stats::median(v))
            .collect();
        crate::stats::median(&per_circuit).unwrap_or(0.0)
    }

    fn check(&self, c: &Circuit, out: &FlowOutput, seed: u64) -> Result<check::Size, String> {
        if !out.report.verify.passed() {
            return Err(format!(
                "verification did not pass: {}",
                out.report.verify.label()
            ));
        }
        check::check_flow_output(&c.reference, out, self.check_words, seed)
    }
}
