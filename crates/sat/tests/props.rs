//! Property tests for the CDCL solver: random 3-CNF instances are
//! cross-checked against a naive DPLL reference on small variable
//! counts, models are validated directly, and known-UNSAT families
//! (pigeonhole, miters of equivalent circuits) must be refuted. The
//! swept miter is checked against exhaustive truth tables.

use rms_logic::netlist::{GateKind, Netlist, Wire};
use rms_logic::rng::SplitMix64;
use rms_logic::NetlistBuilder;
use rms_sat::{
    check_netlists, check_netlists_cancellable, check_netlists_limited, Lit, MiterOutcome,
    SatResult, Solver,
};

/// A naive DPLL decision procedure with unit propagation — slow but
/// obviously correct, used as the reference oracle.
fn dpll(clauses: &[Vec<(usize, bool)>], assign: &mut Vec<Option<bool>>) -> bool {
    // Unit propagation to fixpoint.
    let mut trail: Vec<usize> = Vec::new();
    loop {
        let mut unit: Option<(usize, bool)> = None;
        for clause in clauses {
            let mut satisfied = false;
            let mut unassigned: Option<(usize, bool)> = None;
            let mut count = 0;
            for &(v, neg) in clause {
                match assign[v] {
                    Some(val) => {
                        if val != neg {
                            satisfied = true;
                            break;
                        }
                    }
                    None => {
                        unassigned = Some((v, !neg));
                        count += 1;
                    }
                }
            }
            if satisfied {
                continue;
            }
            match count {
                0 => {
                    // Conflict: undo propagation and fail.
                    for v in trail {
                        assign[v] = None;
                    }
                    return false;
                }
                1 => {
                    unit = unassigned;
                    break;
                }
                _ => {}
            }
        }
        match unit {
            Some((v, val)) => {
                assign[v] = Some(val);
                trail.push(v);
            }
            None => break,
        }
    }
    // Branch on the first unassigned variable.
    match assign.iter().position(|a| a.is_none()) {
        None => true, // no conflict, all assigned
        Some(v) => {
            for val in [false, true] {
                assign[v] = Some(val);
                if dpll(clauses, assign) {
                    return true;
                }
            }
            assign[v] = None;
            for v in trail {
                assign[v] = None;
            }
            false
        }
    }
}

/// Generates a random k-CNF instance as (num_vars, clauses).
fn random_cnf(
    rng: &mut SplitMix64,
    num_vars: usize,
    num_clauses: usize,
) -> Vec<Vec<(usize, bool)>> {
    (0..num_clauses)
        .map(|_| {
            (0..3)
                .map(|_| (rng.next_index(num_vars), rng.next_bool()))
                .collect()
        })
        .collect()
}

fn solve_cdcl(num_vars: usize, clauses: &[Vec<(usize, bool)>]) -> (SatResult, Vec<bool>) {
    let mut s = Solver::new();
    let lits: Vec<Lit> = (0..num_vars).map(|_| Lit::positive(s.new_var())).collect();
    for clause in clauses {
        let c: Vec<Lit> = clause
            .iter()
            .map(|&(v, neg)| if neg { !lits[v] } else { lits[v] })
            .collect();
        s.add_clause(&c);
    }
    let result = s.solve();
    let model = lits.iter().map(|&l| s.value(l)).collect();
    (result, model)
}

fn model_satisfies(clauses: &[Vec<(usize, bool)>], model: &[bool]) -> bool {
    clauses
        .iter()
        .all(|clause| clause.iter().any(|&(v, neg)| model[v] != neg))
}

#[test]
fn random_3cnf_agrees_with_dpll_reference() {
    let mut rng = SplitMix64::new(0x3CDF);
    let mut sat_seen = 0;
    let mut unsat_seen = 0;
    for round in 0..400 {
        // Densities around the 3-SAT threshold (~4.27 clauses/var) give a
        // healthy mix of SAT and UNSAT answers.
        let n = 3 + rng.next_index(10);
        let m = n * 3 + rng.next_index(n * 3 + 1);
        let clauses = random_cnf(&mut rng, n, m);
        let (got, model) = solve_cdcl(n, &clauses);
        let mut assign = vec![None; n];
        let expect = if dpll(&clauses, &mut assign) {
            SatResult::Sat
        } else {
            SatResult::Unsat
        };
        assert_eq!(got, expect, "round {round}: n={n} m={m} {clauses:?}");
        if got == SatResult::Sat {
            sat_seen += 1;
            assert!(
                model_satisfies(&clauses, &model),
                "round {round}: bogus model {model:?} for {clauses:?}"
            );
        } else {
            unsat_seen += 1;
        }
    }
    assert!(sat_seen > 50, "want a real SAT mix, got {sat_seen}");
    assert!(unsat_seen > 50, "want a real UNSAT mix, got {unsat_seen}");
}

#[test]
fn wider_instances_agree_with_dpll_up_to_20_vars() {
    let mut rng = SplitMix64::new(0x20CDF);
    for round in 0..20 {
        let n = 15 + rng.next_index(6); // 15..=20 variables
        let m = (n * 43).div_ceil(10); // ~4.3 clauses per variable
        let clauses = random_cnf(&mut rng, n, m);
        let (got, model) = solve_cdcl(n, &clauses);
        let mut assign = vec![None; n];
        let expect = if dpll(&clauses, &mut assign) {
            SatResult::Sat
        } else {
            SatResult::Unsat
        };
        assert_eq!(got, expect, "round {round}: n={n} m={m}");
        if got == SatResult::Sat {
            assert!(model_satisfies(&clauses, &model), "round {round}");
        }
    }
}

#[test]
fn pigeonhole_instances_are_unsat() {
    for holes in 2..5usize {
        let pigeons = holes + 1;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| Lit::positive(s.new_var())).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for a in 0..pigeons {
            for b in (a + 1)..pigeons {
                for (&la, &lb) in p[a].iter().zip(&p[b]) {
                    s.add_clause(&[!la, !lb]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat, "php({pigeons},{holes})");
    }
}

/// Builds a random netlist two ways — once as written and once with every
/// AND/OR pair rewritten through De Morgan — and requires the miter to be
/// UNSAT (equivalent). These are exactly the UNSAT instances the
/// verification tiers depend on.
#[test]
fn miters_of_equivalent_random_circuits_are_unsat() {
    for seed in 0..20u64 {
        let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9) + 7);
        let n = 4 + rng.next_index(4);
        let gates = 10 + rng.next_index(20);

        let build = |demorgan: bool| {
            let mut b = NetlistBuilder::new("rand");
            let mut wires: Vec<_> = (0..n).map(|i| b.input(format!("x{i}"))).collect();
            let mut r = SplitMix64::new(seed); // same structure choices
            for _ in 0..gates {
                let a = wires[r.next_index(wires.len())];
                let c = wires[r.next_index(wires.len())];
                let a = if r.next_bool() { b.not(a) } else { a };
                let w = match r.next_index(3) {
                    0 => {
                        if demorgan {
                            let x = b.or(b.not(a), b.not(c));
                            b.not(x)
                        } else {
                            b.and(a, c)
                        }
                    }
                    1 => {
                        if demorgan {
                            let x = b.and(b.not(a), b.not(c));
                            b.not(x)
                        } else {
                            b.or(a, c)
                        }
                    }
                    _ => b.xor(a, c),
                };
                wires.push(w);
            }
            let out = *wires.last().expect("gates > 0");
            b.output("f", out);
            b.build()
        };
        let plain = build(false);
        let rewritten = build(true);
        let outcome = check_netlists(&plain, &rewritten).expect("well-formed miter");
        assert!(
            matches!(outcome, MiterOutcome::Equivalent { .. }),
            "seed {seed}: {outcome:?}"
        );
    }
}

/// Builds the (UNSAT) pigeonhole instance php(holes+1, holes) in `s` and
/// returns nothing; used by the bounded-solve test to construct identical
/// instances in independent solvers.
fn add_pigeonhole(s: &mut Solver, holes: usize) {
    let pigeons = holes + 1;
    let p: Vec<Vec<Lit>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| Lit::positive(s.new_var())).collect())
        .collect();
    for row in &p {
        s.add_clause(row);
    }
    for a in 0..pigeons {
        for b in (a + 1)..pigeons {
            for (&la, &lb) in p[a].iter().zip(&p[b]) {
                s.add_clause(&[!la, !lb]);
            }
        }
    }
}

#[test]
fn bounded_solve_reports_unknown_instead_of_guessing() {
    // php(7,6) needs far more than one conflict to refute: a one-conflict
    // budget must come back `None` (unknown) — answering `Sat` would be
    // wrong outright, and answering `Unsat` would be an unsound "proof"
    // the budget never completed. An identical unbounded instance
    // establishes the true verdict.
    let mut bounded = Solver::new();
    add_pigeonhole(&mut bounded, 6);
    assert_eq!(
        bounded.solve_limited(Some(1)),
        None,
        "a 1-conflict budget cannot refute php(7,6)"
    );

    let mut unbounded = Solver::new();
    add_pigeonhole(&mut unbounded, 6);
    assert_eq!(unbounded.solve_limited(None), Some(SatResult::Unsat));
    assert!(
        unbounded.stats().conflicts > 1,
        "php(7,6) should take real search, spent {} conflicts",
        unbounded.stats().conflicts
    );
}

#[test]
fn miter_counterexamples_distinguish_the_netlists_when_replayed() {
    // Random pairs with matching interfaces are almost always
    // inequivalent; every counterexample the miter produces must, when
    // simulated on both netlists, actually make them disagree — a CEX
    // that replays clean would mean the encoder and the simulator
    // disagree about the circuit semantics.
    use rms_logic::random::random_netlist;
    let mut cexes = 0usize;
    for seed in 0..25u64 {
        let inputs = 4 + (seed % 4) as usize;
        let outputs = 1 + (seed % 2) as usize;
        let a = random_netlist("a", seed, inputs, outputs, 12);
        let b = random_netlist("b", seed + 1000, inputs, outputs, 17);
        match check_netlists(&a, &b).expect("matching interfaces") {
            MiterOutcome::Counterexample { inputs: cex } => {
                assert_eq!(cex.len(), a.num_inputs(), "seed {seed}");
                let mut m = 0u64;
                for (i, &bit) in cex.iter().enumerate() {
                    m |= (bit as u64) << i;
                }
                assert_ne!(
                    a.evaluate(m),
                    b.evaluate(m),
                    "seed {seed}: counterexample {cex:?} does not distinguish the netlists"
                );
                cexes += 1;
            }
            MiterOutcome::Equivalent { .. } => {} // rare but legitimate
        }
    }
    assert!(cexes >= 10, "only {cexes}/25 random pairs produced a CEX");
}

/// Rebuilds `nl` gate by gate through equivalent but structurally
/// different forms (De Morgan, XOR and MUX as sums of products, MAJ
/// factored), so a miter against `nl` has many internal equivalences for
/// the sweep to find. `mutate` replaces that gate's function with a
/// different one.
fn rewrite(nl: &Netlist, mutate: Option<usize>) -> Netlist {
    let mut b = NetlistBuilder::new("rewritten");
    let mut vals: Vec<Wire> = vec![b.const0()];
    for name in nl.input_names() {
        vals.push(b.input(name.clone()));
    }
    let wire = |vals: &[Wire], w: Wire| {
        let v = vals[w.node()];
        if w.is_complemented() {
            v.complement()
        } else {
            v
        }
    };
    for (k, (_, gate)) in nl.gates().enumerate() {
        let f: Vec<Wire> = gate.fanins.iter().map(|&w| wire(&vals, w)).collect();
        let z = if mutate == Some(k) {
            match gate.kind {
                GateKind::And => b.or(f[0], f[1]),
                GateKind::Or => b.xor(f[0], f[1]),
                GateKind::Xor => b.and(f[0], f[1]),
                GateKind::Maj => b.maj(b.not(f[0]), f[1], f[2]),
                GateKind::Mux => b.mux(f[0], f[2], f[1]),
            }
        } else {
            match gate.kind {
                GateKind::And => {
                    let o = b.or(b.not(f[0]), b.not(f[1]));
                    b.not(o)
                }
                GateKind::Or => {
                    let a = b.and(b.not(f[0]), b.not(f[1]));
                    b.not(a)
                }
                GateKind::Xor => {
                    let l = b.and(f[0], b.not(f[1]));
                    let r = b.and(b.not(f[0]), f[1]);
                    b.or(l, r)
                }
                GateKind::Maj => {
                    let ab = b.and(f[0], f[1]);
                    let aob = b.or(f[0], f[1]);
                    let c = b.and(f[2], aob);
                    b.or(ab, c)
                }
                GateKind::Mux => {
                    let t = b.and(f[0], f[1]);
                    let e = b.and(b.not(f[0]), f[2]);
                    b.or(t, e)
                }
            }
        };
        vals.push(z);
    }
    for (name, w) in nl.outputs() {
        let o = wire(&vals, *w);
        b.output(name.clone(), o);
    }
    b.build()
}

/// The swept miter agrees with exhaustive truth tables on seeded random
/// circuits of up to 12 inputs: equivalent rewrites prove, and every
/// single-gate mutation that changes the function yields a
/// counterexample that really differs under word simulation.
#[test]
fn swept_miter_agrees_with_exhaustive_truth_tables() {
    use rms_logic::random::random_netlist;
    let (mut proved, mut refuted) = (0usize, 0usize);
    for seed in 0..24u64 {
        let inputs = 6 + (seed % 7) as usize;
        let source = random_netlist("sweep", seed, inputs, 3, 40 + (seed % 5) as usize * 10);
        let outcome = check_netlists(&source, &rewrite(&source, None)).unwrap();
        assert!(outcome.is_equivalent(), "seed {seed}: {outcome:?}");
        proved += 1;
        let mut rng = SplitMix64::new(seed);
        for _ in 0..3 {
            let mutant = rewrite(&source, Some(rng.next_index(source.num_gates())));
            let differs = mutant.truth_tables() != source.truth_tables();
            match check_netlists(&source, &mutant).unwrap() {
                MiterOutcome::Equivalent { .. } => {
                    assert!(
                        !differs,
                        "seed {seed}: a different function was proved equal"
                    )
                }
                MiterOutcome::Counterexample { inputs: cex } => {
                    assert!(differs, "seed {seed}: equal functions got a counterexample");
                    let word: Vec<u64> = cex.iter().map(|&b| if b { !0 } else { 0 }).collect();
                    assert_ne!(
                        source.simulate_words(&word),
                        mutant.simulate_words(&word),
                        "seed {seed}: counterexample {cex:?} does not replay"
                    );
                    refuted += 1;
                }
            }
        }
    }
    assert_eq!(proved, 24);
    assert!(
        refuted >= 24,
        "only {refuted}/72 mutations changed the function"
    );
}

/// The token is polled between candidate-pair proofs: a cancelled token
/// gives up on a miter that has candidates, even an easy one.
#[test]
fn cancelled_token_stops_the_sweep() {
    use rms_logic::random::random_netlist;
    let source = random_netlist("sweep", 3, 9, 3, 40);
    let rewritten = rewrite(&source, None);
    let cancel = rms_core::CancelToken::new();
    cancel.cancel();
    assert_eq!(
        check_netlists_cancellable(&source, &rewritten, None, &cancel),
        Ok(None)
    );
    let inert = rms_core::CancelToken::default();
    let outcome = check_netlists_cancellable(&source, &rewritten, None, &inert).unwrap();
    assert!(outcome.is_some_and(|o| o.is_equivalent()));
}

/// The conflict budget covers the sweep and the final solve together:
/// one conflict cannot prove table5 against its optimized MIG.
#[test]
fn one_conflict_budget_covers_the_sweep() {
    use rms_core::opt::{optimize_rram, OptOptions};
    use rms_core::{Mig, Realization};
    let source = rms_logic::bench_suite::build("table5").unwrap();
    let optimized = optimize_rram(
        &Mig::from_netlist(&source),
        Realization::Maj,
        &OptOptions::with_effort(4),
    )
    .to_netlist();
    assert_eq!(
        check_netlists_limited(&source, &optimized, Some(1)),
        Ok(None)
    );
    match check_netlists(&source, &optimized).unwrap() {
        MiterOutcome::Equivalent { conflicts, .. } => assert!(conflicts > 1, "{conflicts}"),
        other => panic!("table5 must prove: {other:?}"),
    }
}
