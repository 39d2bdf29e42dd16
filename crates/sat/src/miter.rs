//! Miter construction and equivalence proofs.
//!
//! A *miter* joins two circuits over shared primary inputs, XORs each
//! output pair, and ORs the differences: the miter output is satisfiable
//! **iff** the circuits disagree on some input. An UNSAT answer is
//! therefore a *proof* of functional equivalence — at any input width,
//! unlike exhaustive simulation — and a SAT model is a concrete
//! counterexample assignment.
//!
//! [`Miter`] can encode both circuit shapes the pipeline produces:
//!
//! - a gate-level [`Netlist`] (the specification, or an optimized MIG via
//!   `Mig::to_netlist`), and
//! - a compiled RRAM [`Program`] (level-parallel array or serial PLiM
//!   stream), by symbolic execution: every device starts at the
//!   constant-false literal and each micro-op rewrites its destination
//!   literal, reading the pre-step state exactly like the cycle-accurate
//!   machine does.
//!
//! # SAT sweeping
//!
//! [`Miter::prove_limited`] does not hand the solver the output miter
//! straight away. Two versions of one circuit share most of their
//! internal functions, and one monolithic refutation has to rediscover
//! each of them by search. So it first proves them bottom-up on the same
//! solver, in the style of ABC's `cec` (Mishchenko et al., "Improvements
//! to combinational equivalence checking", ICCAD'06):
//!
//! 1. every encoded gate is simulated on 256 random patterns from a
//!    fixed seed, in creation order, which is topological;
//! 2. variables are bucketed into candidate classes by their simulation
//!    words, up to complement;
//! 3. each candidate is proved against its class representative (the
//!    first variable of the class) with two assumption solves,
//!    `z ∧ ¬r` and `¬z ∧ r`, under a small per-pair conflict cap. The
//!    variables of the two gate levels below each side are bumped in the
//!    branching order first, so the search stays near the pair;
//! 4. each proved half becomes a binary clause. A refuted pair's model
//!    becomes a new simulation pattern that splits its class in the next
//!    round. A pair that reaches the cap stays unmerged, which is sound;
//! 5. output pairs proved equal fold away, and the disjunction of the
//!    remaining output differences is solved as the final question.
//!
//! Every added clause is a proved consequence of the circuit clauses, so
//! a final model is still a real counterexample. The conflict budget
//! covers the sweep and the final solve together, and a cancelled token
//! stops the sweep before its next pair proof. The order is fixed, so the
//! reported conflicts and decisions are deterministic.
//!
//! # Example
//!
//! ```
//! use rms_logic::NetlistBuilder;
//! use rms_sat::{check_netlists, MiterOutcome};
//!
//! let mut b = NetlistBuilder::new("a");
//! let (x, y) = (b.input("x"), b.input("y"));
//! let o = b.and(x, y);
//! b.output("f", b.not(o));
//! let a = b.build();
//!
//! let mut b = NetlistBuilder::new("b");
//! let (x, y) = (b.input("x"), b.input("y"));
//! let o = b.or(b.not(x), b.not(y)); // De Morgan
//! b.output("f", o);
//! let bnl = b.build();
//!
//! match check_netlists(&a, &bnl).unwrap() {
//!     MiterOutcome::Equivalent { .. } => {}
//!     MiterOutcome::Counterexample { .. } => panic!("De Morgan holds"),
//! }
//! ```

use crate::lit::{Lit, Var};
use crate::solver::SatResult;
use crate::tseitin::{Encoder, GateKey};
use rms_core::hash::{FxHashMap, FxHasher};
use rms_logic::netlist::{GateKind, Netlist, Wire};
use rms_logic::rng::SplitMix64;
use rms_rram::isa::{MicroOp, Operand, Program, ProgramError};
use std::fmt;
use std::hash::Hasher;

/// Random 64-lane simulation words per variable that seed the sweep's
/// candidate classes.
const SWEEP_WORDS: usize = 4;

/// Conflict cap of one candidate-pair proof. A pair that reaches it
/// stays unmerged, which is sound: the final miter just does not get
/// that equivalence for free.
const SWEEP_PAIR_CONFLICTS: u64 = 1000;

/// Gate levels below each side of a candidate pair whose variables are
/// bumped in the solver's branching order before the pair is proved.
const SWEEP_BUMP_LEVELS: usize = 2;

/// Fixed seed of the sweep's random simulation.
const SWEEP_SEED: u64 = 0x5eed_c0de_c0de_5eed;

/// Outcome of an equivalence proof attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MiterOutcome {
    /// The miter is UNSAT: the two circuits are equivalent on **all**
    /// `2^n` inputs. Carries the proof effort.
    Equivalent {
        /// Conflicts of the refutation.
        conflicts: u64,
        /// Branching decisions of the refutation.
        decisions: u64,
    },
    /// The miter is SAT: the circuits disagree on this input assignment
    /// (index `i` is primary input `i`).
    Counterexample {
        /// One disagreeing input assignment.
        inputs: Vec<bool>,
    },
}

impl MiterOutcome {
    /// Whether the proof succeeded.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, MiterOutcome::Equivalent { .. })
    }
}

/// A structural mismatch that makes a miter ill-formed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MiterError {
    /// The two sides declare different primary-input counts.
    InputCountMismatch {
        /// Inputs of side A.
        a: usize,
        /// Inputs of side B.
        b: usize,
    },
    /// The two sides declare different output counts.
    OutputCountMismatch {
        /// Outputs of side A.
        a: usize,
        /// Outputs of side B.
        b: usize,
    },
    /// A program failed structural validation.
    InvalidProgram(ProgramError),
}

impl fmt::Display for MiterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MiterError::InputCountMismatch { a, b } => {
                write!(f, "input counts differ: {a} vs {b}")
            }
            MiterError::OutputCountMismatch { a, b } => {
                write!(f, "output counts differ: {a} vs {b}")
            }
            MiterError::InvalidProgram(e) => write!(f, "invalid program: {e}"),
        }
    }
}

impl std::error::Error for MiterError {}

impl From<ProgramError> for MiterError {
    fn from(e: ProgramError) -> Self {
        MiterError::InvalidProgram(e)
    }
}

/// An equivalence-checking problem under construction: shared inputs plus
/// any number of encoded circuit sides.
#[derive(Debug)]
pub struct Miter {
    enc: Encoder,
    inputs: Vec<Lit>,
    cancel: rms_core::CancelToken,
}

impl Miter {
    /// Creates a miter over `num_inputs` shared primary inputs.
    pub fn new(num_inputs: usize) -> Self {
        let mut enc = Encoder::new();
        let inputs = (0..num_inputs).map(|_| enc.fresh()).collect();
        Miter {
            enc,
            inputs,
            cancel: rms_core::CancelToken::default(),
        }
    }

    /// The shared primary-input literals.
    pub fn inputs(&self) -> &[Lit] {
        &self.inputs
    }

    /// The underlying encoder (for custom sides).
    pub fn encoder(&mut self) -> &mut Encoder {
        &mut self.enc
    }

    /// Attaches a cooperative-cancellation token: a cancelled token makes
    /// [`Miter::prove_limited`] return `Ok(None)` before its next
    /// candidate-pair proof or at the next solver restart boundary,
    /// exactly like budget exhaustion. Callers tell the two apart by
    /// checking the token afterwards.
    pub fn set_cancel(&mut self, cancel: rms_core::CancelToken) {
        self.enc.set_cancel(cancel.clone());
        self.cancel = cancel;
    }

    /// Encodes a netlist over the shared inputs; returns its output
    /// literals.
    ///
    /// # Errors
    ///
    /// Returns [`MiterError::InputCountMismatch`] when the netlist width
    /// differs from the miter's.
    pub fn add_netlist(&mut self, nl: &Netlist) -> Result<Vec<Lit>, MiterError> {
        if nl.num_inputs() != self.inputs.len() {
            return Err(MiterError::InputCountMismatch {
                a: self.inputs.len(),
                b: nl.num_inputs(),
            });
        }
        // Node values in topological order: constant, inputs, gates.
        let mut vals: Vec<Lit> = Vec::with_capacity(nl.num_nodes());
        vals.push(self.enc.false_lit());
        vals.extend_from_slice(&self.inputs);
        for (idx, gate) in nl.gates() {
            debug_assert_eq!(idx, vals.len(), "gates arrive in node order");
            let f: Vec<Lit> = gate.fanins.iter().map(|&w| wire_lit(&vals, w)).collect();
            let z = match gate.kind {
                GateKind::And => self.enc.and(f[0], f[1]),
                GateKind::Or => self.enc.or(f[0], f[1]),
                GateKind::Xor => self.enc.xor(f[0], f[1]),
                GateKind::Maj => self.enc.maj(f[0], f[1], f[2]),
                GateKind::Mux => self.enc.mux(f[0], f[1], f[2]),
            };
            vals.push(z);
        }
        Ok(nl
            .outputs()
            .iter()
            .map(|&(_, w)| wire_lit(&vals, w))
            .collect())
    }

    /// Symbolically executes a compiled RRAM program over the shared
    /// inputs; returns its output literals.
    ///
    /// # Errors
    ///
    /// Returns [`MiterError::InvalidProgram`] when the program fails
    /// [`Program::validate`], and [`MiterError::InputCountMismatch`] when
    /// its input count differs from the miter's.
    pub fn add_program(&mut self, program: &Program) -> Result<Vec<Lit>, MiterError> {
        if program.num_inputs != self.inputs.len() {
            return Err(MiterError::InputCountMismatch {
                a: self.inputs.len(),
                b: program.num_inputs,
            });
        }
        program.validate()?;
        // Devices power up false, matching the machine.
        let mut regs: Vec<Lit> = vec![self.enc.false_lit(); program.num_regs];
        let mut writes: Vec<(usize, Lit)> = Vec::new();
        for step in &program.steps {
            writes.clear();
            for op in step {
                // All reads observe the pre-step state (`regs` is only
                // updated after the whole step), matching the ISA.
                let (dst, lit) = match *op {
                    MicroOp::False { dst } => (dst, self.enc.false_lit()),
                    MicroOp::Load { dst, src } => {
                        let v = operand_lit(&self.enc, &self.inputs, &regs, src);
                        (dst, v)
                    }
                    MicroOp::Imp { p, q } => {
                        let pv = operand_lit(&self.enc, &self.inputs, &regs, p);
                        let qv = regs[q.0 as usize];
                        (q, self.enc.or(!pv, qv))
                    }
                    MicroOp::Maj { p, q, r } => {
                        let pv = operand_lit(&self.enc, &self.inputs, &regs, p);
                        let qv = operand_lit(&self.enc, &self.inputs, &regs, q);
                        let rv = regs[r.0 as usize];
                        (r, self.enc.maj(pv, !qv, rv))
                    }
                };
                writes.push((dst.0 as usize, lit));
            }
            for &(dst, lit) in &writes {
                regs[dst] = lit;
            }
        }
        Ok(program
            .outputs
            .iter()
            .map(|(_, r)| regs[r.0 as usize])
            .collect())
    }

    /// Asserts the miter over two output vectors and solves.
    ///
    /// # Errors
    ///
    /// Returns [`MiterError::OutputCountMismatch`] when the vectors have
    /// different lengths.
    pub fn prove(self, a: &[Lit], b: &[Lit]) -> Result<MiterOutcome, MiterError> {
        Ok(self
            .prove_limited(a, b, None)?
            .expect("unlimited proof always answers"))
    }

    /// Like [`Miter::prove`] with a conflict budget: `Ok(None)` means
    /// the solver ran out of budget with no answer (the caller should
    /// fall back to a weaker check rather than hang on an adversarial
    /// instance). The budget covers the sweep and the final solve
    /// together.
    ///
    /// # Errors
    ///
    /// Returns [`MiterError::OutputCountMismatch`] when the vectors have
    /// different lengths.
    pub fn prove_limited(
        mut self,
        a: &[Lit],
        b: &[Lit],
        max_conflicts: Option<u64>,
    ) -> Result<Option<MiterOutcome>, MiterError> {
        if a.len() != b.len() {
            return Err(MiterError::OutputCountMismatch {
                a: a.len(),
                b: b.len(),
            });
        }
        // Conflicts still in the budget, shared by the sweep and the
        // final solve.
        let start = self.enc.stats().conflicts;
        let left =
            |enc: &Encoder| max_conflicts.map(|m| m.saturating_sub(enc.stats().conflicts - start));
        let Some(repr) = self.sweep(left) else {
            return Ok(None);
        };
        // Output pairs the sweep proved equal fold to constant false.
        let diffs: Vec<Lit> = a
            .iter()
            .zip(b)
            .map(|(&la, &lb)| self.enc.xor(resolve(&repr, la), resolve(&repr, lb)))
            .collect();
        let any = self.enc.or_many(&diffs);
        self.enc.assert_true(any);
        match self.enc.solve_limited(left(&self.enc)) {
            None => Ok(None),
            Some(SatResult::Unsat) => {
                let stats = self.enc.stats();
                Ok(Some(MiterOutcome::Equivalent {
                    conflicts: stats.conflicts,
                    decisions: stats.decisions,
                }))
            }
            Some(SatResult::Sat) => Ok(Some(MiterOutcome::Counterexample {
                inputs: self.inputs.iter().map(|&l| self.enc.value(l)).collect(),
            })),
        }
    }

    /// Proves internal equivalences bottom-up before the output miter is
    /// asked (SAT sweeping). Simulation buckets every variable into
    /// candidate classes up to complement; each candidate is proved
    /// against its class representative, the first variable of its class
    /// in creation order, by two assumption solves on this miter's own
    /// solver. A proved pair becomes two binary clauses, which makes the
    /// proofs above it and the final miter easy. A refuted pair's model
    /// becomes a simulation lane that splits the classes in the next
    /// round. Rounds end when one refutes nothing.
    ///
    /// `left` reads the conflicts still in the budget. Returns each
    /// variable's proved-equal literal of an earlier variable (itself
    /// when unmerged; see [`resolve`]), or `None` when the budget ran out
    /// or the token was cancelled.
    fn sweep(&mut self, left: impl Fn(&Encoder) -> Option<u64>) -> Option<Vec<Lit>> {
        let num_vars = self.enc.num_vars();
        let true_var = self.enc.true_lit().var().index();
        let mut rng = SplitMix64::new(SWEEP_SEED);
        // words[w][v]: simulation lane word `w` of variable `v`.
        let mut words: Vec<Vec<u64>> = (0..SWEEP_WORDS)
            .map(|_| {
                let mut word: Vec<u64> = (0..num_vars).map(|_| rng.next_u64()).collect();
                word[true_var] = u64::MAX;
                for &(z, key) in self.enc.gates() {
                    word[z.var().index()] = key.simulate(|l| lit_word(&word, l));
                }
                word
            })
            .collect();
        let mut gate_of: Vec<Option<GateKey>> = vec![None; num_vars];
        for &(z, key) in self.enc.gates() {
            gate_of[z.var().index()] = Some(key);
        }
        let mut repr: Vec<Lit> = (0..num_vars)
            .map(|v| Lit::positive(Var(v as u32)))
            .collect();
        // Variables merged into, or given up against, a representative.
        let mut done = vec![false; num_vars];
        loop {
            let mut reps: FxHashMap<u64, Lit> = FxHashMap::default();
            // This round's counterexamples, 64 lanes per word, over every
            // variable (a model assigns them all). Lanes not yet filled
            // repeat lane 0, so a word is a valid pattern set at any time.
            let mut cex: Vec<Vec<u64>> = Vec::new();
            let mut lanes = 0usize;
            for v in 0..num_vars {
                if done[v] {
                    continue;
                }
                // Normalize so lane 0 reads false: `f` and `!f` share a class.
                let z = Lit::new(Var(v as u32), words[0][v] & 1 == 1);
                let mut h = FxHasher::default();
                for word in &words {
                    h.write_u64(lit_word(word, z));
                }
                let r = *reps.entry(h.finish()).or_insert(z);
                if r == z
                    || cex
                        .iter()
                        .any(|word| lit_word(word, z) != lit_word(word, r))
                {
                    continue; // a representative, or already told apart this round
                }
                let (mut merged, mut refuted) = (0, false);
                // Branch near the pair first: after the assumptions, the
                // solver's next decisions fall in the two gate levels
                // below each side instead of on stale, distant variables.
                for l in [z, r] {
                    self.bump_fanin(&gate_of, l, SWEEP_BUMP_LEVELS);
                }
                for (p, q) in [(z, !r), (!z, r)] {
                    if self.cancel.cancelled() {
                        return None;
                    }
                    let cap = left(&self.enc)
                        .map_or(SWEEP_PAIR_CONFLICTS, |l| l.min(SWEEP_PAIR_CONFLICTS));
                    match self.enc.solve_under(&[p, q], Some(cap)) {
                        Some(SatResult::Unsat) => {
                            self.enc.solver_mut().add_clause(&[!p, !q]);
                            merged += 1;
                        }
                        Some(SatResult::Sat) => {
                            let lane = lanes % 64;
                            if lane == 0 {
                                cex.push(vec![0; num_vars]);
                            }
                            let word = cex.last_mut().expect("pushed at lane 0");
                            self.record_model(word, lane);
                            lanes += 1;
                            refuted = true;
                            break;
                        }
                        None if self.cancel.cancelled() || left(&self.enc) == Some(0) => {
                            return None;
                        }
                        None => break,
                    }
                }
                if merged == 2 {
                    // `z` is variable `v` up to its lane-0 phase.
                    repr[v] = if z.is_negated() { !r } else { r };
                }
                // Merged, or given up at the pair cap: never a candidate
                // again. A refuted candidate is re-bucketed next round.
                done[v] = !refuted;
            }
            if cex.is_empty() {
                return Some(repr);
            }
            words.extend(cex);
        }
    }

    /// Bumps the solver activity of the variables up to `levels` gate
    /// levels below `lit`.
    fn bump_fanin(&mut self, gate_of: &[Option<GateKey>], lit: Lit, levels: usize) {
        let Some(key) = gate_of[lit.var().index()].filter(|_| levels > 0) else {
            return;
        };
        for operand in key.operands() {
            self.enc.solver_mut().bump(operand.var());
            self.bump_fanin(gate_of, operand, levels - 1);
        }
    }

    /// Writes the current model's value of every variable into lane
    /// `lane` of `word`; lane 0 fills the whole word.
    fn record_model(&self, word: &mut [u64], lane: usize) {
        for (v, w) in word.iter_mut().enumerate() {
            let value = self.enc.value(Lit::positive(Var(v as u32)));
            *w = match (lane, value) {
                (0, true) => !0,
                (0, false) => 0,
                (_, true) => *w | 1 << lane,
                (_, false) => *w & !(1 << lane),
            };
        }
    }
}

/// The literal of the earliest variable proved equal to `lit`, following
/// the sweep's merge chains (each step goes to an earlier variable).
fn resolve(repr: &[Lit], mut lit: Lit) -> Lit {
    loop {
        let r = repr[lit.var().index()];
        if r.var() == lit.var() {
            return lit;
        }
        lit = if lit.is_negated() { !r } else { r };
    }
}

/// The simulation word of `lit`, given each variable's word.
fn lit_word(words: &[u64], lit: Lit) -> u64 {
    let w = words[lit.var().index()];
    if lit.is_negated() {
        !w
    } else {
        w
    }
}

fn operand_lit(enc: &Encoder, inputs: &[Lit], regs: &[Lit], operand: Operand) -> Lit {
    match operand {
        Operand::Const(b) => enc.constant(b),
        Operand::Input(i) => inputs[i],
        Operand::Reg(r) => regs[r.0 as usize],
    }
}

fn wire_lit(vals: &[Lit], w: Wire) -> Lit {
    let l = vals[w.node()];
    if w.is_complemented() {
        !l
    } else {
        l
    }
}

/// Proves two netlists equivalent (inputs and outputs matched by
/// position).
///
/// # Errors
///
/// Returns [`MiterError`] on input/output arity mismatches.
pub fn check_netlists(a: &Netlist, b: &Netlist) -> Result<MiterOutcome, MiterError> {
    Ok(check_netlists_limited(a, b, None)?.expect("unlimited proof always answers"))
}

/// Budgeted form of [`check_netlists`]: `Ok(None)` when `max_conflicts`
/// ran out without an answer.
///
/// # Errors
///
/// Returns [`MiterError`] on input/output arity mismatches.
pub fn check_netlists_limited(
    a: &Netlist,
    b: &Netlist,
    max_conflicts: Option<u64>,
) -> Result<Option<MiterOutcome>, MiterError> {
    check_netlists_cancellable(a, b, max_conflicts, &rms_core::CancelToken::default())
}

/// [`check_netlists_limited`] with a cancellation token: a cancelled
/// token yields `Ok(None)` at the next solver restart boundary (check
/// the token afterwards to distinguish cancellation from budget
/// exhaustion).
///
/// # Errors
///
/// Returns [`MiterError`] on input/output arity mismatches.
pub fn check_netlists_cancellable(
    a: &Netlist,
    b: &Netlist,
    max_conflicts: Option<u64>,
    cancel: &rms_core::CancelToken,
) -> Result<Option<MiterOutcome>, MiterError> {
    let mut miter = Miter::new(a.num_inputs());
    miter.set_cancel(cancel.clone());
    let oa = miter.add_netlist(a)?;
    let ob = miter.add_netlist(b)?;
    miter.prove_limited(&oa, &ob, max_conflicts)
}

/// Proves every compiled RRAM program equivalent to its specification
/// netlist with **one** miter. The netlist is encoded once, every program
/// is symbolically executed into the same encoder, and one disjunction of
/// every `netlist output ≠ program output` difference is solved.
///
/// Programs compiled from one MIG reduce, under the encoder's structural
/// hashing, to that MIG's output literals, so the hard question (is the
/// optimized circuit equivalent to the source?) is solved once rather than
/// once per program. `Ok(None)` when `max_conflicts` ran out or `cancel`
/// fired without an answer (same contract as
/// [`check_netlists_cancellable`]); a counterexample differs from the
/// netlist on at least one of the programs.
///
/// # Errors
///
/// Returns [`MiterError`] on arity mismatches or an invalid program.
pub fn check_netlist_vs_programs(
    nl: &Netlist,
    programs: &[&Program],
    max_conflicts: Option<u64>,
    cancel: &rms_core::CancelToken,
) -> Result<Option<MiterOutcome>, MiterError> {
    let mut miter = Miter::new(nl.num_inputs());
    miter.set_cancel(cancel.clone());
    let on = miter.add_netlist(nl)?;
    let (mut specs, mut impls) = (Vec::new(), Vec::new());
    for program in programs {
        let op = miter.add_program(program)?;
        if op.len() != on.len() {
            return Err(MiterError::OutputCountMismatch {
                a: on.len(),
                b: op.len(),
            });
        }
        specs.extend_from_slice(&on);
        impls.extend(op);
    }
    miter.prove_limited(&specs, &impls, max_conflicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rms_logic::NetlistBuilder;

    fn full_adder(reassociate: bool) -> Netlist {
        let mut b = NetlistBuilder::new("fa");
        let x = b.input("x");
        let y = b.input("y");
        let c = b.input("cin");
        let (sum, carry) = if reassociate {
            let s1 = b.xor(y, c);
            let sum = b.xor(s1, x);
            let carry = b.maj(c, x, y);
            (sum, carry)
        } else {
            let s1 = b.xor(x, y);
            let sum = b.xor(s1, c);
            let carry = b.maj(x, y, c);
            (sum, carry)
        };
        b.output("s", sum);
        b.output("co", carry);
        b.build()
    }

    #[test]
    fn reassociated_adders_are_equivalent() {
        let out = check_netlists(&full_adder(false), &full_adder(true)).unwrap();
        assert!(out.is_equivalent(), "{out:?}");
    }

    #[test]
    fn broken_adder_yields_a_counterexample() {
        let good = full_adder(false);
        let mut b = NetlistBuilder::new("bad");
        let x = b.input("x");
        let y = b.input("y");
        let c = b.input("cin");
        let s1 = b.xor(x, y);
        let sum = b.xor(s1, c);
        let carry = b.maj(x, y, b.not(c)); // bug: complemented carry-in
        b.output("s", sum);
        b.output("co", carry);
        let bad = b.build();
        match check_netlists(&good, &bad).unwrap() {
            MiterOutcome::Counterexample { inputs } => {
                // The model must actually distinguish the two circuits.
                let m = inputs
                    .iter()
                    .enumerate()
                    .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i));
                assert_ne!(good.evaluate(m), bad.evaluate(m), "inputs {inputs:?}");
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn arity_mismatches_are_structural_errors() {
        let a = full_adder(false);
        let mut b = NetlistBuilder::new("two");
        let x = b.input("x");
        let y = b.input("y");
        let o = b.and(x, y);
        b.output("f", o);
        let two = b.build();
        assert!(matches!(
            check_netlists(&a, &two),
            Err(MiterError::InputCountMismatch { a: 3, b: 2 })
        ));
    }

    /// `check_netlist_vs_programs` with no budget and an inert token.
    fn check_programs(nl: &Netlist, programs: &[&Program]) -> MiterOutcome {
        check_netlist_vs_programs(nl, programs, None, &rms_core::CancelToken::default())
            .unwrap()
            .expect("unlimited proof always answers")
    }

    fn maj3_spec() -> Netlist {
        let mut b = NetlistBuilder::new("maj");
        let x = b.input("a");
        let y = b.input("b");
        let z = b.input("c");
        let m = b.maj(x, y, z);
        b.output("f", m);
        b.build()
    }

    #[test]
    fn program_miter_matches_machine_semantics() {
        use rms_rram::gates::{imp_majority_gate, maj_majority_gate};
        // Both hand-written majority-gate programs implement MAJ(a,b,c);
        // check each against a majority netlist, then both in one miter.
        let spec = maj3_spec();
        let (imp, maj) = (imp_majority_gate(), maj_majority_gate());
        for programs in [&[&imp][..], &[&maj], &[&imp, &maj]] {
            let out = check_programs(&spec, programs);
            assert!(out.is_equivalent(), "{out:?}");
        }
    }

    #[test]
    fn program_with_wrong_function_is_caught() {
        use rms_rram::gates::maj_majority_gate;
        let mut b = NetlistBuilder::new("notmaj");
        let x = b.input("a");
        let y = b.input("b");
        let z = b.input("c");
        let m = b.and(x, y);
        let m2 = b.and(m, z);
        b.output("f", m2);
        let spec = b.build();
        let out = check_programs(&spec, &[&maj_majority_gate()]);
        assert!(!out.is_equivalent(), "AND3 != MAJ3");
    }

    /// One correct and one wrong majority program in a joint miter: the
    /// model must tell the wrong program from the netlist, whichever
    /// position it takes.
    #[test]
    fn joint_miter_catches_one_wrong_program() {
        use rms_rram::gates::maj_majority_gate;
        use rms_rram::machine::Machine;
        let spec = maj3_spec();
        let good = maj_majority_gate();
        // Clearing the output device after the last step makes the
        // program constant false.
        let mut bad = good.clone();
        let dst = bad.outputs[0].1;
        bad.steps.push(vec![MicroOp::False { dst }]);
        for programs in [[&good, &bad], [&bad, &good]] {
            match check_programs(&spec, &programs) {
                MiterOutcome::Counterexample { inputs } => {
                    let m = inputs
                        .iter()
                        .enumerate()
                        .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i));
                    let got = Machine::run_bools(&bad, &inputs).unwrap();
                    assert_ne!(spec.evaluate(m), got, "inputs {inputs:?}");
                }
                other => panic!("expected counterexample, got {other:?}"),
            }
        }
    }

    /// The joint miter is fast because the MAJ array and the PLiM program
    /// compiled from one MIG symbolically execute to exactly that MIG's
    /// output literals, so source vs. MIG is the only question the solver
    /// has to answer. If a compiler change breaks this sharing, every
    /// program adds its own copy of that question and the SAT verification
    /// tier slows down without failing anything else.
    #[test]
    fn compiled_programs_strash_to_the_mig_outputs() {
        use rms_core::opt::{optimize_rram, OptOptions};
        use rms_core::{Mig, Realization};
        use rms_rram::compile::compile;
        use rms_rram::plim::compile_plim;
        for name in ["misex1", "clip", "cm163a", "rd53_f2", "t481_d"] {
            let source = rms_logic::bench_suite::build(name).unwrap();
            let mig = optimize_rram(
                &Mig::from_netlist(&source),
                Realization::Maj,
                &OptOptions::with_effort(4),
            );
            let mut miter = Miter::new(source.num_inputs());
            let want = miter.add_netlist(&mig.to_netlist()).unwrap();
            let array = compile(&mig, Realization::Maj).program;
            let plim = compile_plim(&mig).program;
            for (what, program) in [("MAJ array", &array), ("PLiM", &plim)] {
                let got = miter.add_program(program).unwrap();
                assert_eq!(
                    got, want,
                    "{name}: the {what} program no longer reduces to the MIG's \
                     output literals under structural hashing"
                );
            }
        }
    }
}
