//! Property tests over the front end and the CFG analyses.

use pinpoint_ir::{Cfg, DomTree, Gating, PostDomTree};

/// Minimal SplitMix64 so the fuzz loops below are deterministic without
/// an external PRNG dependency.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The parser returns an error — never panics — on arbitrary input.
#[test]
fn parser_is_total_on_garbage() {
    let mut rng = Mix(0xF00D);
    for _ in 0..512 {
        let len = rng.below(200);
        let input: String = (0..len)
            .map(|_| {
                // Printable ASCII plus a few newlines/tabs.
                let c = rng.below(100) as u8;
                if c < 95 {
                    (c + 0x20) as char
                } else {
                    ['\n', '\t', 'λ', '∧', '→'][(c - 95) as usize]
                }
            })
            .collect();
        let _ = pinpoint_ir::compile(&input);
    }
}

/// Ditto for inputs made of plausible tokens (more likely to get deep
/// into the grammar before failing).
#[test]
fn parser_is_total_on_token_soup() {
    const TOKENS: &[&str] = &[
        "fn", "let", "if", "else", "while", "return", "global", "int", "bool", "malloc", "null",
        "(", ")", "{", "}", ";", ":", ",", "=", "==", "*", "+", "->", "x", "y", "42", "true",
    ];
    let mut rng = Mix(0xBEEF);
    for _ in 0..512 {
        let n = rng.below(60);
        let soup: Vec<&str> = (0..n).map(|_| TOKENS[rng.below(TOKENS.len())]).collect();
        let _ = pinpoint_ir::compile(&soup.join(" "));
    }
}

/// Runs `f` on a thread with the 2 MiB stack test threads get by default
/// (stated, so the bound does not depend on how the test is launched).
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("thread spawns")
        .join()
        .expect("no stack overflow, no panic")
}

/// Brace nesting costs the item splitter no stack (it counts, it does not
/// recurse), and the body parser gives up at its nesting bound: hostile
/// nesting is an error, never an overflow.
#[test]
fn hostile_nesting_errors_on_a_small_stack() {
    let message = |src: String| {
        on_small_stack(move || {
            pinpoint_ir::compile(&src)
                .expect_err("hostile input does not compile")
                .to_string()
        })
    };
    let braces = "{".repeat(1 << 20);
    assert!(message(braces.clone()).contains("expected `fn` or `global`, found LBrace"));
    assert!(message(format!("fn f() {braces}")).contains("expected statement, found LBrace"));
    let ifs = format!("fn f(c: bool) {{ {}", "if (c) { ".repeat(100_000));
    assert!(message(ifs.clone()).contains("nesting too deep"));
    let closed = format!("{ifs}{} return; }}", "} ".repeat(100_000));
    assert!(message(closed).contains("nesting too deep"));
    assert!(message("}".repeat(1 << 20)).contains("expected `fn` or `global`, found RBrace"));
    assert!(message("fn f() { return; } }".to_string())
        .contains("expected `fn` or `global`, found RBrace"));
}

/// Linear-time guard, unoptimised, as a doubling ratio rather than a
/// wall-clock bound: one function of `4n` statements — `n` variables, `n`
/// two-armed branches each merging one of them — and a file of `4n`
/// one-line functions, compiled at `n` and at `2n`. Linear work doubles;
/// a front end that copies the environment per branch, or looks anything
/// up by scanning, quadruples. The fastest of three runs at each size
/// counts, so a slow spell of a shared host moves neither much.
#[test]
fn huge_function_and_huge_item_table_compile_in_linear_time() {
    use std::fmt::Write;
    use std::time::{Duration, Instant};
    /// Doubling the input may cost at most this factor.
    const LIMIT: f64 = 3.0;
    // What each input is called, its text, its functions and its phis.
    let inputs = |n: usize| {
        let mut one_function = String::from("fn f(c: bool) {\n");
        for i in 0..n {
            writeln!(
                one_function,
                "let v{i}: int = {i};\nv{i} = v{i} + 1;\n\
                 if (c) {{ v{i} = 0; }} else {{ v{i} = 1; }}\nprint(v{i});"
            )
            .unwrap();
        }
        one_function.push_str("return;\n}\n");
        let mut many_functions = String::new();
        for i in 0..4 * n {
            writeln!(many_functions, "fn f{i}() {{ return; }}").unwrap();
        }
        [
            ("one function", one_function, 1, n),
            ("many functions", many_functions, 4 * n, 0),
        ]
    };
    let fastest = |(what, src, funcs, phis): &(&str, String, usize, usize)| {
        let mut fastest = Duration::MAX;
        for _ in 0..3 {
            let t = Instant::now();
            let module = pinpoint_ir::compile(src).unwrap();
            fastest = fastest.min(t.elapsed());
            assert_eq!(module.funcs.len(), *funcs, "{what}");
            let phi_count = module
                .funcs
                .iter()
                .flat_map(|f| f.iter_insts())
                .filter(|(_, i)| matches!(i, pinpoint_ir::Inst::Phi { .. }))
                .count();
            assert_eq!(phi_count, *phis, "{what}");
        }
        fastest.as_secs_f64()
    };
    let n = 5_000;
    for (small, large) in inputs(n).iter().zip(&inputs(2 * n)) {
        let ratio = fastest(large) / fastest(small);
        assert!(
            ratio < LIMIT,
            "{}: doubling the input cost {ratio:.2}x",
            small.0
        );
    }
}

/// A small pool of well-formed programs exercising varied control flow.
fn program_pool() -> Vec<&'static str> {
    vec![
        "fn f(a: bool, b: bool) -> int {
            let x: int = 0;
            if (a) { if (b) { x = 1; } else { x = 2; } }
            else { x = 3; }
            return x;
        }",
        "fn f(a: bool, b: bool, c: bool) -> int {
            let x: int = 0;
            if (a) { x = 1; }
            if (b) { x = x + 1; }
            if (c) { return x; }
            return x + 1;
        }",
        "fn f(n: int) -> int {
            let i: int = 0;
            let acc: int = 0;
            while (i < n) {
                acc = acc + i;
                i = i + 1;
            }
            return acc;
        }",
        "fn f(a: bool) -> int {
            if (a) { return 1; } else { return 2; }
        }",
        "fn f(a: bool, b: bool) {
            if (a) {
                if (b) { print(1); }
                print(2);
            }
            return;
        }",
    ]
}

#[test]
fn dominator_invariants_hold() {
    for src in program_pool() {
        let m = pinpoint_ir::compile(src).unwrap();
        let f = &m.funcs[0];
        let cfg = Cfg::new(f);
        let dom = DomTree::dominators(f, &cfg);
        // Entry dominates every reachable block.
        for (bi, &reachable) in cfg.reachable.iter().enumerate() {
            if !reachable {
                continue;
            }
            let b = pinpoint_ir::BlockId(bi as u32);
            assert!(dom.dominates(f.entry(), b), "{src}: entry dom bb{bi}");
            // The idom (strictly) dominates its block.
            if b != f.entry() {
                let idom = dom.idom(b).expect("reachable non-entry has idom");
                assert!(dom.dominates(idom, b));
                assert_ne!(idom, b, "no self-idom outside entry");
            }
        }
    }
}

#[test]
fn postdominator_invariants_hold() {
    for src in program_pool() {
        let m = pinpoint_ir::compile(src).unwrap();
        let f = &m.funcs[0];
        let cfg = Cfg::new(f);
        let pdt = PostDomTree::new(f, &cfg);
        for (bi, &reachable) in cfg.reachable.iter().enumerate() {
            if !reachable {
                continue;
            }
            let b = pinpoint_ir::BlockId(bi as u32);
            assert!(
                pdt.post_dominates(pdt.exit, b),
                "{src}: exit postdominates bb{bi}"
            );
        }
    }
}

/// φ gates are exhaustive: the disjunction of a φ's incoming gates is a
/// tautology relative to reaching the join (checked via the SMT solver:
/// reach(join) ∧ ¬(g₁ ∨ g₂ ∨ …) is unsatisfiable).
#[test]
fn phi_gates_are_exhaustive() {
    use pinpoint_ir::{Inst, ValueId};
    use pinpoint_smt::{SmtResult, SmtSession, TermArena};
    for src in program_pool() {
        let m = pinpoint_ir::compile(src).unwrap();
        let fid = pinpoint_ir::FuncId(0);
        let f = &m.funcs[0];
        let cfg = Cfg::new(f);
        let dom = DomTree::dominators(f, &cfg);
        let gating = Gating::new(f, &cfg, &dom);
        let mut arena = TermArena::new();
        let mut symbols = pinpoint_pta::Symbols::new();
        for (id, inst) in f.iter_insts() {
            let Inst::Phi { incomings, .. } = inst else {
                continue;
            };
            let gates: Vec<_> = incomings
                .iter()
                .map(|&(p, _): &(pinpoint_ir::BlockId, ValueId)| {
                    let g = gating.gate(id.block, p);
                    symbols.gate_term(&mut arena, fid, f, g)
                })
                .collect();
            let any = arena.or(gates);
            let none = arena.not(any);
            // Under the conditions that reach the join at all, some gate
            // must fire. Our φs sit at structured joins whose reach is
            // implied by the gates' disjunction itself being complete
            // relative to the dominator; so ¬(∨ gates) conjoined with
            // the join's reach must be unsatisfiable. Reach is the
            // disjunction of predecessor reaches — approximated here by
            // the gates themselves, so we check ¬(∨gᵢ) ∧ (∨gᵢ) ≡ ⊥ and,
            // stronger, that the gate disjunction is valid given the
            // dominating block is reached (structured CFGs: it is a
            // tautology over the branch variables).
            let mut solver = SmtSession::new();
            assert_eq!(
                solver.check(&arena, none),
                SmtResult::Unsat,
                "{src}: φ at {id} has non-exhaustive gates"
            );
        }
    }
}
