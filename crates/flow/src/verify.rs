//! Tiered machine-level verification: exhaustive, SAT-proved, or sampled.
//!
//! Every pipeline run checks its compiled programs against the source
//! netlist. Three tiers exist, selected by [`VerifyMode`] and the input
//! width:
//!
//! | Tier | When | Guarantee |
//! |---|---|---|
//! | exhaustive | `n ≤ 14` inputs (under [`VerifyMode::Auto`]) | all `2^n` minterms simulated |
//! | SAT proof | `n > 14`, or forced with [`VerifyMode::Sat`] | one miter per job (source vs. every program) refuted by the `rms-sat` CDCL solver — a proof at any width |
//! | sampled | explicit [`VerifyMode::Sampled`] opt-out only | 64 random 64-bit pattern words — evidence, not proof |
//!
//! Historically the pipeline silently degraded to sampling above the
//! cutoff; the SAT tier replaces that, so a "pass" now means *proved*
//! regardless of width. Sampling survives only as an explicit opt-out
//! (`--verify sampled`) for quick smoke runs.
//!
//! Every failing tier reports a concrete counterexample input assignment
//! in [`VerifyOutcome::Failed`] — the SAT model gives it for free (and is
//! replayed on each program to name the first one it tells apart from the
//! netlist), the exhaustive tier decodes the differing minterm, and the
//! sampled tier extracts the differing bit lane.
//!
//! [`check_netlists`] applies the same policy to two standalone circuits
//! (the `rms verify` subcommand and the differential test harness).

use crate::error::FlowError;
use rms_core::CancelToken;
use rms_logic::netlist::{Netlist, NetlistBuilder, Wire};
use rms_logic::sim::random_patterns;
use rms_logic::tt::MAX_VARS;
use rms_rram::isa::Program;
use rms_rram::machine::{block_words, Machine};
use rms_sat::{check_netlist_vs_programs, check_netlists_limited, MiterError, MiterOutcome};

/// Inputs wider than this use the SAT tier rather than exhaustive
/// simulation (under [`VerifyMode::Auto`]).
pub const EXHAUSTIVE_VERIFY_VARS: usize = 14;

/// Number of 64-bit pattern words for sampled verification.
pub const VERIFY_SAMPLE_WORDS: usize = 64;

/// Number of 64-bit pattern words simulated **before** any SAT proof is
/// attempted: a miter for inequivalent circuits usually has abundant
/// counterexamples, and word-parallel simulation finds one in
/// microseconds where the solver would spend conflicts. Equivalent
/// circuits pass through to the proof unchanged — the spot-check can
/// only fail fast, never claim equivalence.
pub const PRE_SAT_SPOT_WORDS: usize = 4;

/// Conflict budget of the SAT tier, per job: the source netlist and every
/// compiled program share one miter, so this bounds the whole proof, not
/// each program. Every bundled benchmark proves well under this, but
/// user-supplied circuits can be adversarial for any SAT solver
/// (a 32-input multiplier miter is exponentially hard), so the proof
/// attempt is bounded: under [`VerifyMode::Auto`] an exhausted budget
/// falls back to sampled verification; under [`VerifyMode::Sat`] it is
/// an error (the caller explicitly demanded a proof).
pub const SAT_CONFLICT_BUDGET: u64 = 500_000;

/// How verification is performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// Tiered policy: exhaustive up to [`EXHAUSTIVE_VERIFY_VARS`] inputs,
    /// SAT proof above.
    #[default]
    Auto,
    /// Force a SAT proof regardless of width.
    Sat,
    /// Exhaustive below the cutoff, random sampling above — the explicit
    /// opt-out of formal checking (the pre-SAT behaviour).
    Sampled,
    /// Skip verification entirely.
    Off,
}

impl VerifyMode {
    /// Parses a mode name as given on the command line.
    pub fn from_name(name: &str) -> Option<VerifyMode> {
        match name.to_ascii_lowercase().as_str() {
            "auto" | "tiered" | "on" => Some(VerifyMode::Auto),
            "sat" | "proof" | "formal" => Some(VerifyMode::Sat),
            "sampled" | "sample" | "random" => Some(VerifyMode::Sampled),
            "off" | "none" | "skip" => Some(VerifyMode::Off),
            _ => None,
        }
    }
}

impl std::fmt::Display for VerifyMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyMode::Auto => write!(f, "auto"),
            VerifyMode::Sat => write!(f, "sat"),
            VerifyMode::Sampled => write!(f, "sampled"),
            VerifyMode::Off => write!(f, "off"),
        }
    }
}

/// Outcome of the verification stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// Verification was disabled.
    Skipped,
    /// Every minterm was simulated and matched.
    Exhaustive,
    /// A SAT miter was refuted: equivalence is *proved* at full width.
    Proved {
        /// Conflicts over all refutations of the run.
        conflicts: u64,
        /// Branching decisions over all refutations of the run.
        decisions: u64,
    },
    /// Random patterns matched (explicit opt-out — not a proof).
    Sampled {
        /// Number of 64-bit pattern words simulated.
        words: usize,
    },
    /// A mismatch was found.
    Failed {
        /// What disagreed (which program or circuit, which tier).
        what: String,
        /// A disagreeing input assignment (index `i` = primary input
        /// `i`); empty when the mismatch is structural (e.g. different
        /// output counts).
        counterexample: Vec<bool>,
    },
}

impl VerifyOutcome {
    /// Whether verification actually ran and observed no mismatch.
    pub fn passed(&self) -> bool {
        !matches!(self, VerifyOutcome::Skipped | VerifyOutcome::Failed { .. })
    }

    /// Whether the outcome is a *guarantee* over the full input space
    /// (exhaustive simulation or a SAT proof).
    pub fn is_proof(&self) -> bool {
        matches!(
            self,
            VerifyOutcome::Exhaustive | VerifyOutcome::Proved { .. }
        )
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            VerifyOutcome::Skipped => "skipped".into(),
            VerifyOutcome::Exhaustive => "exhaustive".into(),
            VerifyOutcome::Proved {
                conflicts,
                decisions,
            } => {
                format!("proved (SAT, {conflicts} conflicts, {decisions} decisions)")
            }
            VerifyOutcome::Sampled { words } => format!("sampled ({words} words)"),
            VerifyOutcome::Failed { what, .. } => format!("FAILED ({what})"),
        }
    }
}

/// Renders a counterexample assignment with the circuit's input names
/// (`x0=1 x1=0 …`).
pub fn format_assignment(names: &[String], inputs: &[bool]) -> String {
    if inputs.is_empty() {
        return "(structural mismatch, no assignment)".into();
    }
    inputs
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            let name = names.get(i).map(|s| s.as_str()).unwrap_or("?");
            format!("{name}={}", b as u8)
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Checks both compiled programs against the netlist under the tiered
/// policy. Mismatches come back as [`VerifyOutcome::Failed`]; only
/// structurally invalid programs (a toolchain bug) are hard errors.
pub(crate) fn verify_programs(
    netlist: &Netlist,
    programs: &[(&str, &Program)],
    mode: VerifyMode,
    seed: u64,
    cancel: &CancelToken,
) -> Result<VerifyOutcome, FlowError> {
    if mode == VerifyMode::Off {
        return Ok(VerifyOutcome::Skipped);
    }
    let n = netlist.num_inputs();
    if mode != VerifyMode::Sat && n <= EXHAUSTIVE_VERIFY_VARS.min(MAX_VARS) {
        let reference = netlist.truth_tables();
        for &(what, program) in programs {
            let got = Machine::truth_tables(program)
                .map_err(|e| FlowError::Verification(format!("{what}: invalid program: {e}")))?;
            if got != reference {
                let (o, m) = first_diff(&got, &reference);
                return Ok(VerifyOutcome::Failed {
                    what: format!("{what} program differs from the netlist on output {o}"),
                    counterexample: minterm_bits(m, n),
                });
            }
        }
        return Ok(VerifyOutcome::Exhaustive);
    }
    if mode == VerifyMode::Sampled {
        let failed = replay_tier(netlist, programs, VERIFY_SAMPLE_WORDS, seed, "sampled")?;
        return Ok(failed.unwrap_or(VerifyOutcome::Sampled {
            words: VERIFY_SAMPLE_WORDS,
        }));
    }
    // Word-parallel spot-check in front of the SAT tier: a buggy
    // program almost always differs on random words, which is far
    // cheaper to find by simulation than by refutation.
    if let Some(failed) = replay_tier(
        netlist,
        programs,
        PRE_SAT_SPOT_WORDS,
        seed,
        "pre-SAT spot-check",
    )? {
        return Ok(failed);
    }
    // SAT tier: one miter for the whole job, under one conflict budget.
    let (names, compiled): (Vec<&str>, Vec<&Program>) = programs.iter().copied().unzip();
    let names = names.join(" and ");
    match check_netlist_vs_programs(netlist, &compiled, Some(SAT_CONFLICT_BUDGET), cancel) {
        Ok(Some(MiterOutcome::Equivalent {
            conflicts,
            decisions,
        })) => Ok(VerifyOutcome::Proved {
            conflicts,
            decisions,
        }),
        Ok(Some(MiterOutcome::Counterexample { inputs })) => sat_failure(netlist, programs, inputs),
        // `None` is also what a cancelled solver returns; the token
        // tells the two apart.
        Ok(None) if cancel.cancelled() => Err(FlowError::Timeout(format!(
            "{names}: verification abandoned at the request deadline"
        ))),
        // Budget exhausted on an adversarial instance: degrade to
        // sampling rather than hang (an explicit `--verify sat` would
        // error out instead).
        Ok(None) if mode == VerifyMode::Auto => {
            verify_programs(netlist, programs, VerifyMode::Sampled, seed, cancel)
        }
        Ok(None) => Err(FlowError::Verification(format!(
            "{names}: SAT proof gave up after {SAT_CONFLICT_BUDGET} conflicts; \
             re-run with `--verify sampled` for a non-proof check"
        ))),
        Err(e) => Err(FlowError::Verification(format!("{names}: {e}"))),
    }
}

/// Names the first program, in program order, on which the joint miter's
/// model `inputs` really differs from the netlist. A model on which every
/// program agrees is a solver or encoder bug: an error, never a pass.
fn sat_failure(
    netlist: &Netlist,
    programs: &[(&str, &Program)],
    inputs: Vec<bool>,
) -> Result<VerifyOutcome, FlowError> {
    let word: Vec<u64> = inputs
        .iter()
        .map(|&b| if b { u64::MAX } else { 0 })
        .collect();
    let reference = netlist.simulate_words(&word);
    let mut machine = Machine::new();
    for &(what, program) in programs {
        let got = machine
            .run_words(program, &word)
            .map_err(|e| FlowError::Verification(format!("{what}: invalid program: {e}")))?;
        if got != reference {
            return Ok(VerifyOutcome::Failed {
                what: format!("{what} program differs from the netlist (SAT counterexample)"),
                counterexample: inputs,
            });
        }
    }
    Err(FlowError::Verification(format!(
        "the SAT counterexample {} does not replay on any program (solver or encoder bug)",
        format_assignment(netlist.input_names(), &inputs)
    )))
}

/// Replays the programs on `words` seeded random pattern words against
/// the netlist; a mismatch comes back as [`VerifyOutcome::Failed`] with
/// `tier` in its description.
fn replay_tier(
    netlist: &Netlist,
    programs: &[(&str, &Program)],
    words: usize,
    seed: u64,
    tier: &str,
) -> Result<Option<VerifyOutcome>, FlowError> {
    let patterns = random_patterns(netlist.num_inputs(), words, seed);
    Ok(
        first_mismatch(netlist, programs, &patterns)?.map(|m| VerifyOutcome::Failed {
            what: format!(
                "{} program differs from the netlist on output {} ({tier})",
                programs[m.program].0, m.output
            ),
            counterexample: lane_bits(&patterns[m.word], m.lane),
        }),
    )
}

/// Where a pattern replay first disagrees with the netlist.
struct Mismatch {
    /// Index into the program list.
    program: usize,
    output: usize,
    /// Index into the pattern words.
    word: usize,
    lane: usize,
}

/// The first disagreement of any program with the netlist: the earliest
/// pattern word, then program order, then the first output and lane.
///
/// Each program is validated once, the first time it runs, and replayed
/// one block of [`block_words`] pattern words at a time against the
/// netlist's simulation of that block, so only one block of outputs is
/// held per program.
fn first_mismatch(
    netlist: &Netlist,
    programs: &[(&str, &Program)],
    patterns: &[Vec<u64>],
) -> Result<Option<Mismatch>, FlowError> {
    let block = programs
        .iter()
        .map(|(_, p)| block_words(p.num_regs))
        .min()
        .unwrap_or(1);
    let mut valid = vec![None; programs.len()];
    let mut machine = Machine::new();
    for (b, words) in patterns.chunks(block).enumerate() {
        let reference: Vec<Vec<u64>> = words.iter().map(|w| netlist.simulate_words(w)).collect();
        let mut first: Option<Mismatch> = None;
        for (pi, &(what, program)) in programs.iter().enumerate() {
            // A later program only matters on words before the first
            // mismatch found so far.
            let limit = first.as_ref().map_or(words.len(), |m| m.word);
            if limit == 0 {
                break;
            }
            let program = match valid[pi] {
                Some(p) => p,
                None => *valid[pi].insert(program.validated().map_err(|e| {
                    FlowError::Verification(format!("{what}: invalid program: {e}"))
                })?),
            };
            let got = machine.run_patterns(program, &words[..limit]);
            if let Some(word) = (0..limit).find(|&w| got[w] != reference[w]) {
                let (output, lane) = first_word_diff(&got[word], &reference[word]);
                first = Some(Mismatch {
                    program: pi,
                    output,
                    word,
                    lane,
                });
            }
        }
        if let Some(m) = first {
            return Ok(Some(Mismatch {
                word: b * block + m.word,
                ..m
            }));
        }
    }
    Ok(None)
}

/// Checks two standalone circuits for functional equivalence under the
/// tiered policy.
///
/// Inputs are matched by name when both circuits declare the same name
/// set (in any order) and by position otherwise; outputs are always
/// matched by position.
///
/// # Errors
///
/// Returns [`FlowError::Unsupported`] when the circuits declare
/// different input counts (nothing meaningful can be compared).
pub fn check_netlists(
    a: &Netlist,
    b: &Netlist,
    mode: VerifyMode,
    seed: u64,
) -> Result<VerifyOutcome, FlowError> {
    if mode == VerifyMode::Off {
        return Ok(VerifyOutcome::Skipped);
    }
    if a.num_inputs() != b.num_inputs() {
        return Err(FlowError::Unsupported(format!(
            "cannot compare {:?} ({} inputs) with {:?} ({} inputs)",
            a.name(),
            a.num_inputs(),
            b.name(),
            b.num_inputs()
        )));
    }
    let aligned;
    let b = match input_alignment(a, b) {
        Some(order) => {
            aligned = permute_inputs(b, &order);
            &aligned
        }
        None => b,
    };
    if a.num_outputs() != b.num_outputs() {
        return Ok(VerifyOutcome::Failed {
            what: format!(
                "output counts differ: {} vs {}",
                a.num_outputs(),
                b.num_outputs()
            ),
            counterexample: Vec::new(),
        });
    }
    let n = a.num_inputs();
    if mode != VerifyMode::Sat && n <= EXHAUSTIVE_VERIFY_VARS.min(MAX_VARS) {
        let ta = a.truth_tables();
        let tb = b.truth_tables();
        if ta != tb {
            let (o, m) = first_diff(&tb, &ta);
            return Ok(VerifyOutcome::Failed {
                what: format!("circuits differ on output {o}"),
                counterexample: minterm_bits(m, n),
            });
        }
        return Ok(VerifyOutcome::Exhaustive);
    }
    if mode == VerifyMode::Sampled {
        for pattern in random_patterns(n, VERIFY_SAMPLE_WORDS, seed) {
            let wa = a.simulate_words(&pattern);
            let wb = b.simulate_words(&pattern);
            if wa != wb {
                let (o, lane) = first_word_diff(&wb, &wa);
                return Ok(VerifyOutcome::Failed {
                    what: format!("circuits differ on output {o} (sampled)"),
                    counterexample: lane_bits(&pattern, lane),
                });
            }
        }
        return Ok(VerifyOutcome::Sampled {
            words: VERIFY_SAMPLE_WORDS,
        });
    }
    // Word-parallel spot-check in front of the SAT tier (fail fast on
    // random-word disagreement; agreement proves nothing and falls
    // through to the miter).
    for pattern in random_patterns(n, PRE_SAT_SPOT_WORDS, seed) {
        let wa = a.simulate_words(&pattern);
        let wb = b.simulate_words(&pattern);
        if wa != wb {
            let (o, lane) = first_word_diff(&wb, &wa);
            return Ok(VerifyOutcome::Failed {
                what: format!("circuits differ on output {o} (pre-SAT spot-check)"),
                counterexample: lane_bits(&pattern, lane),
            });
        }
    }
    match check_netlists_limited(a, b, Some(SAT_CONFLICT_BUDGET)) {
        Ok(Some(MiterOutcome::Equivalent {
            conflicts,
            decisions,
        })) => Ok(VerifyOutcome::Proved {
            conflicts,
            decisions,
        }),
        Ok(Some(MiterOutcome::Counterexample { inputs })) => Ok(VerifyOutcome::Failed {
            what: "circuits differ (SAT counterexample)".into(),
            counterexample: inputs,
        }),
        Ok(None) if mode == VerifyMode::Auto => {
            // Budget exhausted: degrade to sampling rather than hang.
            check_netlists(a, b, VerifyMode::Sampled, seed)
        }
        Ok(None) => Err(FlowError::Verification(format!(
            "SAT proof gave up after {SAT_CONFLICT_BUDGET} conflicts; \
             re-run with `--verify sampled` for a non-proof check"
        ))),
        Err(MiterError::OutputCountMismatch { a, b }) => Ok(VerifyOutcome::Failed {
            what: format!("output counts differ: {a} vs {b}"),
            counterexample: Vec::new(),
        }),
        Err(e) => Err(FlowError::Verification(e.to_string())),
    }
}

/// When both circuits declare the same input-name set in a different
/// order, returns `order` such that `b` input `order[i]` corresponds to
/// `a` input `i`.
fn input_alignment(a: &Netlist, b: &Netlist) -> Option<Vec<usize>> {
    if a.input_names() == b.input_names() {
        return None; // already aligned
    }
    let order: Vec<usize> = a
        .input_names()
        .iter()
        .map(|name| b.input_names().iter().position(|n| n == name))
        .collect::<Option<Vec<_>>>()?;
    // Must be a permutation (no duplicate names mapping to one index).
    let mut seen = vec![false; order.len()];
    for &i in &order {
        if seen[i] {
            return None;
        }
        seen[i] = true;
    }
    Some(order)
}

/// Rebuilds `nl` with its inputs permuted: new input `i` is old input
/// `order[i]` (names preserved).
fn permute_inputs(nl: &Netlist, order: &[usize]) -> Netlist {
    let mut b = NetlistBuilder::new(nl.name());
    // map[old_node] = new wire (uncomplemented).
    let mut map: Vec<Wire> = vec![Wire::new(0, false); nl.num_nodes()];
    let mut new_inputs: Vec<Wire> = vec![Wire::new(0, false); order.len()];
    for &old_pos in order {
        new_inputs[old_pos] = b.input(nl.input_names()[old_pos].clone());
    }
    for (old_pos, &w) in new_inputs.iter().enumerate() {
        map[nl.input_wire(old_pos).node()] = w;
    }
    let remap = |map: &[Wire], w: Wire| -> Wire {
        let base = map[w.node()];
        if w.is_complemented() {
            base.complement()
        } else {
            base
        }
    };
    for (idx, gate) in nl.gates() {
        let fanins: Vec<Wire> = gate.fanins.iter().map(|&w| remap(&map, w)).collect();
        let new = match gate.kind {
            rms_logic::GateKind::And => b.and(fanins[0], fanins[1]),
            rms_logic::GateKind::Or => b.or(fanins[0], fanins[1]),
            rms_logic::GateKind::Xor => b.xor(fanins[0], fanins[1]),
            rms_logic::GateKind::Maj => b.maj(fanins[0], fanins[1], fanins[2]),
            rms_logic::GateKind::Mux => b.mux(fanins[0], fanins[1], fanins[2]),
        };
        map[idx] = new;
    }
    for (name, w) in nl.outputs() {
        b.output(name.clone(), remap(&map, *w));
    }
    b.build()
}

/// First (output, minterm) where two truth-table vectors differ.
fn first_diff(a: &[rms_logic::TruthTable], b: &[rms_logic::TruthTable]) -> (usize, u64) {
    for (o, (x, y)) in a.iter().zip(b).enumerate() {
        if x != y {
            for m in 0..x.num_bits() {
                if x.bit(m) != y.bit(m) {
                    return (o, m);
                }
            }
        }
    }
    (usize::MAX, u64::MAX)
}

/// First (output, bit lane) where two simulation word vectors differ.
fn first_word_diff(a: &[u64], b: &[u64]) -> (usize, usize) {
    for (o, (x, y)) in a.iter().zip(b).enumerate() {
        if x != y {
            return (o, (x ^ y).trailing_zeros() as usize);
        }
    }
    (usize::MAX, 0)
}

/// Decodes minterm `m` into per-input bits.
fn minterm_bits(m: u64, n: usize) -> Vec<bool> {
    (0..n).map(|i| (m >> i) & 1 == 1).collect()
}

/// Extracts bit `lane` of every input pattern word.
fn lane_bits(pattern: &[u64], lane: usize) -> Vec<bool> {
    pattern.iter().map(|w| (w >> lane) & 1 == 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rms_logic::NetlistBuilder;

    fn xor_chain(name: &str, names: &[&str]) -> Netlist {
        let mut b = NetlistBuilder::new(name);
        let ins: Vec<Wire> = names.iter().map(|n| b.input(*n)).collect();
        let mut acc = ins[0];
        for &w in &ins[1..] {
            acc = b.xor(acc, w);
        }
        b.output("f", acc);
        b.build()
    }

    #[test]
    fn mode_names_parse() {
        assert_eq!(VerifyMode::from_name("auto"), Some(VerifyMode::Auto));
        assert_eq!(VerifyMode::from_name("SAT"), Some(VerifyMode::Sat));
        assert_eq!(VerifyMode::from_name("sampled"), Some(VerifyMode::Sampled));
        assert_eq!(VerifyMode::from_name("off"), Some(VerifyMode::Off));
        assert_eq!(VerifyMode::from_name("nope"), None);
        assert_eq!(VerifyMode::Sat.to_string(), "sat");
    }

    #[test]
    fn equal_circuits_check_out_in_every_mode() {
        let a = xor_chain("a", &["x", "y", "z"]);
        let b = xor_chain("b", &["x", "y", "z"]);
        assert_eq!(
            check_netlists(&a, &b, VerifyMode::Auto, 1).unwrap(),
            VerifyOutcome::Exhaustive
        );
        assert!(matches!(
            check_netlists(&a, &b, VerifyMode::Sat, 1).unwrap(),
            VerifyOutcome::Proved { .. }
        ));
        assert_eq!(
            check_netlists(&a, &b, VerifyMode::Off, 1).unwrap(),
            VerifyOutcome::Skipped
        );
    }

    #[test]
    fn inputs_align_by_name() {
        let a = xor_chain("a", &["x", "y", "z"]);
        // Same function of the same named inputs, declared in another
        // order: must still be equivalent.
        let mut b = NetlistBuilder::new("b");
        let z = b.input("z");
        let x = b.input("x");
        let y = b.input("y");
        let p = b.xor(x, y);
        let q = b.xor(p, z);
        b.output("f", q);
        let b = b.build();
        assert_eq!(
            check_netlists(&a, &b, VerifyMode::Auto, 1).unwrap(),
            VerifyOutcome::Exhaustive
        );
        assert!(check_netlists(&a, &b, VerifyMode::Sat, 1)
            .unwrap()
            .is_proof());
    }

    #[test]
    fn counterexample_is_concrete() {
        let a = xor_chain("a", &["x", "y", "z"]);
        let mut b = NetlistBuilder::new("b");
        let (x, y, z) = (b.input("x"), b.input("y"), b.input("z"));
        let p = b.xor(x, y);
        let q = b.or(p, z); // differs from XOR when p & z
        b.output("f", q);
        let bad = b.build();
        for mode in [VerifyMode::Auto, VerifyMode::Sat] {
            match check_netlists(&a, &bad, mode, 1).unwrap() {
                VerifyOutcome::Failed { counterexample, .. } => {
                    let m = counterexample
                        .iter()
                        .enumerate()
                        .fold(0u64, |acc, (i, &v)| acc | ((v as u64) << i));
                    assert_ne!(a.evaluate(m), bad.evaluate(m), "{mode}: {counterexample:?}");
                }
                other => panic!("{mode}: expected failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn wide_circuits_get_proved_not_sampled() {
        let names: Vec<String> = (0..20).map(|i| format!("x{i}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let a = xor_chain("a", &refs);
        let b = xor_chain("b", &refs);
        assert!(matches!(
            check_netlists(&a, &b, VerifyMode::Auto, 1).unwrap(),
            VerifyOutcome::Proved { .. }
        ));
        assert!(matches!(
            check_netlists(&a, &b, VerifyMode::Sampled, 1).unwrap(),
            VerifyOutcome::Sampled { .. }
        ));
    }

    #[test]
    fn output_count_mismatch_is_a_clean_failure() {
        let a = xor_chain("a", &["x", "y"]);
        let mut b = NetlistBuilder::new("b");
        let (x, y) = (b.input("x"), b.input("y"));
        let o = b.xor(x, y);
        b.output("f", o);
        b.output("g", x);
        let b = b.build();
        match check_netlists(&a, &b, VerifyMode::Auto, 1).unwrap() {
            VerifyOutcome::Failed {
                what,
                counterexample,
            } => {
                assert!(what.contains("output counts"), "{what}");
                assert!(counterexample.is_empty());
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn input_count_mismatch_is_an_error() {
        let a = xor_chain("a", &["x", "y"]);
        let b = xor_chain("b", &["x", "y", "z"]);
        assert!(matches!(
            check_netlists(&a, &b, VerifyMode::Auto, 1),
            Err(FlowError::Unsupported(_))
        ));
    }

    /// `program` with one output device cleared after the last step.
    fn clear_output(program: &Program, output: usize) -> Program {
        let mut p = program.clone();
        let dst = p.outputs[output].1;
        p.steps.push(vec![rms_rram::isa::MicroOp::False { dst }]);
        p
    }

    /// 16 inputs; `f` is the AND of the first twelve, so clearing it shows
    /// only on rare patterns.
    fn rare_and() -> Netlist {
        let mut b = NetlistBuilder::new("rare_and");
        let ins: Vec<Wire> = (0..16).map(|i| b.input(format!("x{i}"))).collect();
        let mut acc = ins[0];
        for &w in &ins[1..12] {
            acc = b.and(acc, w);
        }
        // A parity of 300 distinct three-input products, so the
        // programs need many devices.
        let mut g = b.xor(ins[0], ins[1]);
        for (i, (x, y, z)) in (0..16)
            .flat_map(|x| (x + 1..16).flat_map(move |y| (y + 1..16).map(move |z| (x, y, z))))
            .take(300)
            .enumerate()
        {
            let xy = b.and(ins[x], ins[y]);
            let lit = if i % 2 == 0 {
                ins[z]
            } else {
                ins[z].complement()
            };
            let t = b.and(xy, lit);
            g = b.xor(g, t);
        }
        b.output("f", acc);
        b.output("g", g);
        b.build()
    }

    /// Every verification tier on programs with a cleared output device:
    /// the reported program, output and counterexample are pinned.
    #[test]
    fn corrupted_programs_fail_with_pinned_reports() {
        use rms_core::{Mig, Realization};
        use rms_rram::compile::compile;
        use rms_rram::plim::compile_plim;
        let circuits = [
            rms_logic::bench_suite::build("misex1").unwrap(),
            rms_logic::bench_suite::build("clip").unwrap(),
            rms_logic::bench_suite::build("cm163a").unwrap(),
            rms_logic::bench_suite::synthetic("wide", 20, 6, 1500),
            rare_and(),
        ];
        let mut got = Vec::new();
        for nl in &circuits {
            let mig = Mig::from_netlist(nl);
            let maj = compile(&mig, Realization::Maj).program;
            let imp = compile(&mig, Realization::Imp).program;
            let plim = compile_plim(&mig).program;
            let last = nl.num_outputs() - 1;
            let (bad_maj, bad_imp) = (clear_output(&maj, last), clear_output(&imp, last / 2));
            let bad_plim = clear_output(&plim, 0);
            let cases: [(&str, [(&str, &Program); 2]); 4] = [
                ("maj", [("array", &bad_maj), ("plim", &plim)]),
                ("imp", [("array", &bad_imp), ("plim", &plim)]),
                ("plim", [("array", &maj), ("plim", &bad_plim)]),
                ("both", [("array", &bad_maj), ("plim", &bad_plim)]),
            ];
            // The rare failures of `rare_and` are out of the spot-check's
            // reach, and its SAT miter is slow.
            let modes: &[VerifyMode] = if nl.num_inputs() <= EXHAUSTIVE_VERIFY_VARS {
                &[VerifyMode::Auto, VerifyMode::Sat]
            } else if nl.name() == "rare_and" {
                &[VerifyMode::Sampled]
            } else {
                &[VerifyMode::Sampled, VerifyMode::Sat]
            };
            for (label, programs) in &cases {
                for &mode in modes {
                    let outcome =
                        verify_programs(nl, programs, mode, 7, &CancelToken::default()).unwrap();
                    let line = match outcome {
                        VerifyOutcome::Failed {
                            what,
                            counterexample,
                        } => {
                            let bits: String = counterexample
                                .iter()
                                .map(|&b| if b { '1' } else { '0' })
                                .collect();
                            format!("{} {label} {mode}: {what} @ {bits}", nl.name())
                        }
                        other => format!("{} {label} {mode}: {}", nl.name(), other.label()),
                    };
                    got.push(line);
                }
            }
        }
        let expected = [
            "misex1 maj auto: array program differs from the netlist on output 6 @ 00001001",
            "misex1 maj sat: array program differs from the netlist on output 6 (pre-SAT spot-check) @ 10101101",
            "misex1 imp auto: array program differs from the netlist on output 3 @ 10000010",
            "misex1 imp sat: array program differs from the netlist on output 3 (pre-SAT spot-check) @ 10101101",
            "misex1 plim auto: plim program differs from the netlist on output 0 @ 00000110",
            "misex1 plim sat: plim program differs from the netlist on output 0 (pre-SAT spot-check) @ 00100110",
            "misex1 both auto: array program differs from the netlist on output 6 @ 00001001",
            "misex1 both sat: array program differs from the netlist on output 6 (pre-SAT spot-check) @ 10101101",
            "clip maj auto: array program differs from the netlist on output 4 @ 000010000",
            "clip maj sat: array program differs from the netlist on output 4 (pre-SAT spot-check) @ 101110110",
            "clip imp auto: array program differs from the netlist on output 2 @ 001000000",
            "clip imp sat: array program differs from the netlist on output 2 (pre-SAT spot-check) @ 101110110",
            "clip plim auto: plim program differs from the netlist on output 0 @ 100000000",
            "clip plim sat: plim program differs from the netlist on output 0 (pre-SAT spot-check) @ 101110110",
            "clip both auto: array program differs from the netlist on output 4 @ 000010000",
            "clip both sat: array program differs from the netlist on output 4 (pre-SAT spot-check) @ 101110110",
            "cm163a maj sampled: array program differs from the netlist on output 4 (sampled) @ 1011101100101010",
            "cm163a maj sat: array program differs from the netlist on output 4 (pre-SAT spot-check) @ 1011101100101010",
            "cm163a imp sampled: array program differs from the netlist on output 2 (sampled) @ 1001010011100000",
            "cm163a imp sat: array program differs from the netlist on output 2 (pre-SAT spot-check) @ 1001010011100000",
            "cm163a plim sampled: plim program differs from the netlist on output 0 (sampled) @ 1001010011100000",
            "cm163a plim sat: plim program differs from the netlist on output 0 (pre-SAT spot-check) @ 1001010011100000",
            "cm163a both sampled: array program differs from the netlist on output 4 (sampled) @ 1011101100101010",
            "cm163a both sat: array program differs from the netlist on output 4 (pre-SAT spot-check) @ 1011101100101010",
            "wide maj sampled: array program differs from the netlist on output 5 (sampled) @ 10010100111000001110",
            "wide maj sat: array program differs from the netlist on output 5 (pre-SAT spot-check) @ 10010100111000001110",
            "wide imp sampled: array program differs from the netlist on output 2 (sampled) @ 11000011000110101110",
            "wide imp sat: array program differs from the netlist on output 2 (pre-SAT spot-check) @ 11000011000110101110",
            "wide plim sampled: plim program differs from the netlist on output 0 (sampled) @ 10111011001010101100",
            "wide plim sat: plim program differs from the netlist on output 0 (pre-SAT spot-check) @ 10111011001010101100",
            "wide both sampled: array program differs from the netlist on output 5 (sampled) @ 10010100111000001110",
            "wide both sat: array program differs from the netlist on output 5 (pre-SAT spot-check) @ 10010100111000001110",
            "rare_and maj sampled: array program differs from the netlist on output 1 (sampled) @ 1001010011100000",
            "rare_and imp sampled: array program differs from the netlist on output 0 (sampled) @ 1111111111111110",
            "rare_and plim sampled: plim program differs from the netlist on output 0 (sampled) @ 1111111111111110",
            "rare_and both sampled: array program differs from the netlist on output 1 (sampled) @ 1001010011100000",
        ];
        assert_eq!(got, expected);
    }

    /// 18 inputs; `f` is the AND of all of them and `g` an OR of pairwise
    /// products. With `f` stuck at false, the programs differ from this
    /// netlist on one minterm in 2^18, out of the 4-word spot-check's
    /// reach.
    fn and_all(f_stuck_false: bool) -> Netlist {
        let mut b = NetlistBuilder::new("and_all");
        let ins: Vec<Wire> = (0..18).map(|i| b.input(format!("x{i}"))).collect();
        let f = if f_stuck_false {
            b.const0()
        } else {
            ins[1..].iter().fold(ins[0], |acc, &w| b.and(acc, w))
        };
        let mut g = b.const0();
        for pair in ins.chunks(2) {
            let p = b.and(pair[0], pair[1].complement());
            g = b.or(g, p);
        }
        b.output("f", f);
        b.output("g", g);
        b.build()
    }

    /// The SAT tier's failure reports: the joint miter's model names the
    /// first wrong program in program order, and it really tells that
    /// program apart from the source.
    #[test]
    fn sat_tier_names_the_wrong_program() {
        use rms_core::{Mig, Realization};
        use rms_rram::compile::compile;
        use rms_rram::plim::compile_plim;
        let source = and_all(false);
        let compiled = |nl: &Netlist| {
            let mig = Mig::from_netlist(nl);
            (
                compile(&mig, Realization::Maj).program,
                compile_plim(&mig).program,
            )
        };
        let (array, plim) = compiled(&source);
        let (bad_array, bad_plim) = compiled(&and_all(true));
        let cases: [([(&str, &Program); 2], &str); 3] = [
            ([("array", &bad_array), ("plim", &plim)], "array"),
            ([("array", &array), ("plim", &bad_plim)], "plim"),
            ([("array", &bad_array), ("plim", &bad_plim)], "array"),
        ];
        for (programs, wrong) in &cases {
            for mode in [VerifyMode::Auto, VerifyMode::Sat] {
                let outcome =
                    verify_programs(&source, programs, mode, 7, &CancelToken::default()).unwrap();
                let VerifyOutcome::Failed {
                    what,
                    counterexample,
                } = outcome
                else {
                    panic!("{wrong} {mode}: expected a failure, got {outcome:?}");
                };
                assert_eq!(
                    what,
                    format!("{wrong} program differs from the netlist (SAT counterexample)")
                );
                assert!(counterexample.iter().all(|&b| b), "{counterexample:?}");
                let program = programs.iter().find(|(w, _)| w == wrong).unwrap().1;
                let m = (1u64 << counterexample.len()) - 1;
                assert_ne!(
                    Machine::run_bools(program, &counterexample).unwrap(),
                    source.evaluate(m)
                );
            }
        }
        let good = [("array", &array), ("plim", &plim)];
        let outcome = verify_programs(&source, &good, VerifyMode::Auto, 7, &CancelToken::default());
        assert!(
            matches!(outcome, Ok(VerifyOutcome::Proved { .. })),
            "{outcome:?}"
        );
    }

    /// A SAT model on which no program differs from the netlist is an
    /// error, never a pass.
    #[test]
    fn sat_model_that_replays_nowhere_is_an_error() {
        use rms_core::{Mig, Realization};
        let source = and_all(false);
        let program =
            rms_rram::compile::compile(&Mig::from_netlist(&source), Realization::Maj).program;
        let result = sat_failure(&source, &[("array", &program)], vec![true; 18]);
        match result {
            Err(FlowError::Verification(msg)) => {
                assert!(msg.contains("does not replay on any program"), "{msg}")
            }
            other => panic!("expected a verification error, got {other:?}"),
        }
    }

    #[test]
    fn assignment_formatting() {
        let names: Vec<String> = vec!["a".into(), "b".into()];
        assert_eq!(format_assignment(&names, &[true, false]), "a=1 b=0");
        assert!(format_assignment(&names, &[]).contains("structural"));
    }
}
