//! Differential test of the block replay kernel: every output word and
//! the touched-device count must be bit-identical to a straight-line
//! interpreter that runs one pattern word at a time.

use rms_core::{Mig, Realization};
use rms_logic::bench_suite::small_suite;
use rms_logic::rng::SplitMix64;
use rms_logic::sim::random_patterns;
use rms_logic::TruthTable;
use rms_rram::isa::{MicroOp, Operand, Program, RegId, Step};
use rms_rram::machine::{block_words, Machine, MAX_BLOCK_WORDS, REGISTER_FILE_WORDS};
use rms_rram::{compile, compile_plim};

/// One pattern word through `program`, step by step: every op of a step
/// reads a copy of the state from before the step. Returns the output
/// words and the number of devices written.
fn reference(program: &Program, inputs: &[u64]) -> (Vec<u64>, u64) {
    let mut regs = vec![0u64; program.num_regs];
    let mut touched = vec![false; program.num_regs];
    for step in &program.steps {
        let before = regs.clone();
        let value = |o: Operand| match o {
            Operand::Const(b) => {
                if b {
                    u64::MAX
                } else {
                    0
                }
            }
            Operand::Input(i) => inputs[i],
            Operand::Reg(r) => before[r.0 as usize],
        };
        for op in step {
            let (dst, v) = match *op {
                MicroOp::False { dst } => (dst, 0),
                MicroOp::Load { dst, src } => (dst, value(src)),
                MicroOp::Imp { p, q } => (q, !value(p) | before[q.0 as usize]),
                MicroOp::Maj { p, q, r } => {
                    let (a, b, c) = (value(p), !value(q), before[r.0 as usize]);
                    (r, (a & b) | (a & c) | (b & c))
                }
            };
            regs[dst.0 as usize] = v;
            touched[dst.0 as usize] = true;
        }
    }
    let outs = program
        .outputs
        .iter()
        .map(|(_, r)| regs[r.0 as usize])
        .collect();
    (outs, touched.iter().filter(|&&t| t).count() as u64)
}

/// Replays `program` through the kernel on pattern counts around its
/// block width, and checks every word, `run_words` and the stats.
fn check(program: &Program, seed: u64) {
    let valid = program.validated().expect("valid program");
    let w = block_words(program.num_regs);
    let mut machine = Machine::new();
    for count in [
        1,
        w.saturating_sub(1),
        w,
        w + 1,
        2 * w + 3,
        MAX_BLOCK_WORDS + 1,
    ] {
        let patterns = random_patterns(program.num_inputs, count, seed ^ count as u64);
        let got = machine.run_patterns(valid, &patterns);
        assert_eq!(got.len(), patterns.len());
        let mut touched = 0;
        for (k, (pattern, words)) in patterns.iter().zip(&got).enumerate() {
            let (expected, t) = reference(program, pattern);
            assert_eq!(words, &expected, "word {k} of {count} (block width {w})");
            touched = t;
        }
        if count > 0 {
            assert_eq!(machine.stats(program).devices_touched, touched);
            assert_eq!(machine.stats(program).steps, program.num_steps());
        }
    }
    let pattern = &random_patterns(program.num_inputs, 1, seed)[0];
    assert_eq!(
        machine.run_words(program, pattern).unwrap(),
        reference(program, pattern).0
    );
}

#[test]
fn compiled_small_suite_programs_match_the_reference() {
    for nl in small_suite() {
        let mig = Mig::from_netlist(&nl);
        for program in [
            compile(&mig, Realization::Maj).program,
            compile(&mig, Realization::Imp).program,
            compile_plim(&mig).program,
        ] {
            check(&program, nl.num_gates() as u64);
            // The exhaustive tables go through the same kernel: word `k`
            // of every table is the reference run on minterm word `k`.
            let n = nl.num_inputs();
            let vars: Vec<TruthTable> = (0..n).map(|i| TruthTable::var(n, i)).collect();
            let tts = Machine::truth_tables(&program).unwrap();
            for k in 0..vars[0].words().len() {
                let inputs: Vec<u64> = vars.iter().map(|v| v.words()[k]).collect();
                let (expected, _) = reference(&program, &inputs);
                let mask = TruthTable::one(n).words()[k];
                for (t, &e) in tts.iter().zip(&expected) {
                    assert_eq!(t.words()[k], e & mask, "{} word {k}", nl.name());
                }
            }
        }
    }
}

fn random_operand(rng: &mut SplitMix64, num_inputs: usize, regs: &[u32]) -> Operand {
    match rng.next_index(4) {
        0 => Operand::Const(rng.next_bool()),
        1 => Operand::Input(rng.next_index(num_inputs)),
        _ => Operand::Reg(RegId(regs[rng.next_index(regs.len())])),
    }
}

/// A random valid program over the devices `regs`: steps of up to eight
/// ops that freely read devices written in the same step, with explicit
/// swaps mixed in.
fn random_program(rng: &mut SplitMix64, num_regs: usize, regs: &[u32]) -> Program {
    let num_inputs = 1 + rng.next_index(6);
    let mut steps: Vec<Step> = Vec::new();
    for _ in 0..1 + rng.next_index(40) {
        let mut free: Vec<u32> = regs.to_vec();
        let mut step = Step::new();
        if free.len() >= 2 && rng.chance(1, 3) {
            let (a, b) = (free.swap_remove(0), free.swap_remove(0));
            step.push(MicroOp::Load {
                dst: RegId(a),
                src: Operand::Reg(RegId(b)),
            });
            step.push(MicroOp::Load {
                dst: RegId(b),
                src: Operand::Reg(RegId(a)),
            });
        }
        for _ in 0..rng.next_index(8) {
            if free.is_empty() {
                break;
            }
            let dst = RegId(free.swap_remove(rng.next_index(free.len())));
            let op = match rng.next_index(4) {
                0 => MicroOp::False { dst },
                1 => MicroOp::Load {
                    dst,
                    src: random_operand(rng, num_inputs, regs),
                },
                2 => MicroOp::Imp {
                    p: random_operand(rng, num_inputs, regs),
                    q: dst,
                },
                _ => MicroOp::Maj {
                    p: random_operand(rng, num_inputs, regs),
                    q: random_operand(rng, num_inputs, regs),
                    r: dst,
                },
            };
            step.push(op);
        }
        steps.push(step);
    }
    let outputs = (0..1 + rng.next_index(4))
        .map(|o| (format!("o{o}"), RegId(regs[rng.next_index(regs.len())])))
        .collect();
    Program {
        num_inputs,
        num_regs,
        steps,
        outputs,
        model_rrams: 0,
    }
}

#[test]
fn random_programs_match_the_reference() {
    let mut rng = SplitMix64::new(12);
    for case in 0..300 {
        let num_regs = 1 + rng.next_index(12);
        let regs: Vec<u32> = (0..num_regs as u32).collect();
        let program = random_program(&mut rng, num_regs, &regs);
        assert!(program.validate().is_ok(), "case {case}");
        check(&program, case);
    }
}

#[test]
fn block_width_follows_the_register_file_budget() {
    assert_eq!(block_words(0), MAX_BLOCK_WORDS);
    assert_eq!(block_words(1), MAX_BLOCK_WORDS);
    assert_eq!(block_words(REGISTER_FILE_WORDS / 64), 64);
    assert_eq!(block_words(REGISTER_FILE_WORDS / 64 + 1), 32);
    assert_eq!(block_words(REGISTER_FILE_WORDS / 5), 4);
    assert_eq!(block_words(REGISTER_FILE_WORDS / 3), 2);
    assert_eq!(block_words(REGISTER_FILE_WORDS), 1);
    assert_eq!(block_words(REGISTER_FILE_WORDS + 7), 1);
}

#[test]
fn large_programs_match_the_reference_at_narrow_widths() {
    let mut rng = SplitMix64::new(99);
    // Widths 1 (more devices than the register file holds), 4 and 16.
    for num_regs in [
        REGISTER_FILE_WORDS + 7,
        REGISTER_FILE_WORDS / 5,
        REGISTER_FILE_WORDS / 20,
    ] {
        for case in 0..3 {
            // Few ops on devices spread over the whole range.
            let regs: Vec<u32> = [0, 1, 2, 401, 777, num_regs - 2, num_regs - 1]
                .iter()
                .map(|&r| r as u32)
                .collect();
            let program = random_program(&mut rng, num_regs, &regs);
            check(&program, case);
        }
    }
}
