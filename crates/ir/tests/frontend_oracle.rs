//! Differential oracle for the front end: the function-granular pipeline
//! against the whole-file reference (`reference/mod.rs`), on well-formed
//! and on hostile input.
//!
//! Whatever the input, three callers must agree with the reference —
//! [`pinpoint_ir::frontend::compile`] (the serial loop) and the analysis
//! driver's sharded [`pinpoint_core::compile_source`] at one and at four
//! threads: on success the same `Module` field for field, on failure the
//! same error variant, message, byte offset and line.

mod reference;

use pinpoint_ir::lexer::{Lexer, Tok};
use pinpoint_ir::{module_fingerprints, CompileError, Module};
use pinpoint_obs::TraceBuf;
use pinpoint_workload::fuzzgen::{self, FuzzGenConfig};
use pinpoint_workload::gen::{self, GenConfig};
use pinpoint_workload::rng::SmallRng;
use std::path::{Path, PathBuf};

/// Field-for-field equality of two modules.
fn assert_same_module(got: &Module, want: &Module, what: &str) {
    assert_eq!(got.funcs.len(), want.funcs.len(), "{what}: function count");
    for (g, w) in got.funcs.iter().zip(&want.funcs) {
        let what = format!("{what}: fn {}", w.name);
        assert_eq!(g.name, w.name, "{what}: name");
        assert_eq!(g.params, w.params, "{what}: params");
        assert_eq!(g.ret_tys, w.ret_tys, "{what}: return types");
        assert_eq!(g.aux_param_count, w.aux_param_count, "{what}: aux params");
        assert_eq!(g.blocks.len(), w.blocks.len(), "{what}: block count");
        for (i, (gb, wb)) in g.blocks.iter().zip(&w.blocks).enumerate() {
            assert_eq!(gb.insts, wb.insts, "{what}: bb{i} instructions");
            assert_eq!(gb.term, wb.term, "{what}: bb{i} terminator");
        }
        assert_eq!(g.values.len(), w.values.len(), "{what}: value count");
        for (i, (gv, wv)) in g.values.iter().zip(&w.values).enumerate() {
            assert_eq!(
                (&gv.name, gv.ty, gv.def),
                (&wv.name, wv.ty, wv.def),
                "{what}: v{i}"
            );
        }
        assert_eq!(
            got.func_by_name(&w.name),
            want.func_by_name(&w.name),
            "{what}: name index"
        );
    }
    assert_eq!(
        got.globals.len(),
        want.globals.len(),
        "{what}: global count"
    );
    for (g, w) in got.globals.iter().zip(&want.globals) {
        assert_eq!((&g.name, g.ty), (&w.name, w.ty), "{what}: global");
    }
    assert_eq!(
        module_fingerprints(got),
        module_fingerprints(want),
        "{what}: content fingerprints"
    );
}

fn assert_agrees(
    got: Result<Module, CompileError>,
    want: &Result<Module, CompileError>,
    what: &str,
) {
    match (got, want) {
        (Ok(got), Ok(want)) => assert_same_module(&got, want, what),
        (Err(got), Err(want)) => assert_eq!(&got, want, "{what}"),
        (Ok(_), Err(want)) => panic!("{what}: compiled, the reference fails with {want:?}"),
        (Err(got), Ok(_)) => panic!("{what}: fails with {got:?}, the reference compiles"),
    }
}

/// Checks every caller against the reference on `src`; returns whether
/// it compiled.
fn check(src: &str, what: &str) -> bool {
    let want = reference::compile(src);
    assert_agrees(
        pinpoint_ir::frontend::compile(src),
        &want,
        &format!("{what}, serial"),
    );
    for threads in [1, 4] {
        let got = pinpoint_core::compile_source(src, threads, &mut TraceBuf::off())
            .map(|c| c.module)
            .map_err(|e| match e {
                pinpoint_core::PinpointError::Parse(e) => CompileError::Parse(e),
                pinpoint_core::PinpointError::Lower(e) => CompileError::Lower(e),
                other => panic!("{what}: not a front-end error: {other:?}"),
            });
        assert_agrees(got, &want, &format!("{what}, {threads} thread(s)"));
    }
    want.is_ok()
}

fn corpus() -> Vec<(String, String)> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|x| x == "pp") {
                out.push(path);
            }
        }
    }
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut files = Vec::new();
    walk(&root, &mut files);
    files.sort();
    assert!(files.len() >= 22, "corpus moved? found {}", files.len());
    files
        .into_iter()
        .map(|p| {
            let name = p.strip_prefix(&root).unwrap().display().to_string();
            (name, std::fs::read_to_string(&p).unwrap())
        })
        .collect()
}

fn fuzz_programs() -> Vec<(String, String)> {
    (1..=50)
        .map(|seed| {
            let src = fuzzgen::generate(&FuzzGenConfig {
                seed,
                recursion: true,
                ..FuzzGenConfig::default()
            });
            (format!("fuzzgen seed {seed}"), src)
        })
        .collect()
}

fn projects() -> Vec<(String, String)> {
    (1..=3)
        .map(|seed| {
            let project = gen::generate(&GenConfig {
                seed,
                ..GenConfig::default().with_target_kloc(20.0)
            });
            (format!("20 KLoC project seed {seed}"), project.source)
        })
        .collect()
}

/// Start offsets of `src`'s tokens, then `src.len()`.
fn token_starts(src: &str) -> Vec<usize> {
    let mut lexer = Lexer::new(src);
    let mut starts = Vec::new();
    loop {
        let t = lexer.next_token().expect("seed programs lex");
        starts.push(t.span.offset);
        if t.tok == Tok::Eof {
            return starts;
        }
    }
}

/// `src` with `range` replaced by `with`.
fn splice(src: &str, range: std::ops::Range<usize>, with: &str) -> String {
    format!("{}{with}{}", &src[..range.start], &src[range.end..])
}

/// The seeded mutation set of one well-formed program. `scale` divides
/// the per-kind counts (200 truncations, …) down to at least one of each
/// kind: a mutant costs four compilations of the program.
fn mutants(src: &str, seed: u64, scale: usize) -> Vec<(String, String)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let starts = token_starts(src);
    let tokens = starts.len() - 1;
    let braces: Vec<usize> = (0..tokens)
        .filter(|&i| matches!(src.as_bytes()[starts[i]], b'{' | b'}'))
        .collect();
    let mut out = Vec::new();
    let boundary = |rng: &mut SmallRng| {
        let mut at = rng.gen_range(0..src.len() + 1);
        while !src.is_char_boundary(at) {
            at -= 1;
        }
        at
    };
    for _ in 0..(200 / scale).max(1) {
        let at = boundary(&mut rng);
        out.push((format!("truncated at {at}"), src[..at].to_string()));
    }
    for _ in 0..(48 / scale).max(1) {
        // Overwrite one ASCII byte, mostly with bytes the lexer or the
        // grammar trips over.
        const HOSTILE: &[u8] = b"&|\"@#{}()/*;:=<>!-+,xX09 \n";
        let at = rng.gen_range(0..src.len());
        if !src.as_bytes()[at].is_ascii() {
            continue;
        }
        let with = HOSTILE[rng.gen_range(0..HOSTILE.len())] as char;
        out.push((
            format!("byte {at} → {with:?}"),
            splice(src, at..at + 1, with.encode_utf8(&mut [0; 4])),
        ));
    }
    for _ in 0..(48 / scale).max(1) {
        let i = rng.gen_range(0..tokens);
        let token = starts[i]..starts[i + 1];
        out.push((format!("token {i} deleted"), splice(src, token.clone(), "")));
        out.push((
            format!("token {i} doubled"),
            splice(src, token.start..token.start, &src[token]),
        ));
    }
    for _ in 0..(24 / scale).max(1) {
        let at = starts[rng.gen_range(0..tokens + 1)];
        let brace = if rng.gen_bool(0.5) { "{" } else { "}" };
        out.push((
            format!("`{brace}` inserted at {at}"),
            splice(src, at..at, brace),
        ));
        if !braces.is_empty() {
            let at = starts[braces[rng.gen_range(0..braces.len())]];
            out.push((
                format!("brace at {at} removed"),
                splice(src, at..at + 1, ""),
            ));
        }
    }
    for tail in [
        "/* never closed",
        "\"runaway",
        "\n/* two\nlines",
        "fn tail() { \"x",
    ] {
        out.push((format!("{tail:?} appended"), format!("{src}{tail}")));
        let at = starts[rng.gen_range(0..tokens + 1)];
        out.push((
            format!("{tail:?} inserted at {at}"),
            splice(src, at..at, tail),
        ));
    }
    // Errors of two classes in one file, the higher-ranking one later: a
    // lexing error after a parse error, and a parse error after a
    // lowering error. After a `{` or `;` an assignment is (mostly) a
    // statement.
    let stmt_starts: Vec<usize> = (1..tokens)
        .filter(|&i| matches!(src.as_bytes()[starts[i - 1]], b'{' | b';'))
        .collect();
    for _ in 0..(12 / scale).max(1) {
        let first = rng.gen_range(0..tokens);
        let second = rng.gen_range(first..tokens + 1);
        let (a, b) = (starts[first], starts[second]);
        let unlexable = ["@", "&", "|", "\"s\"", "99999999999999999999"][rng.gen_range(0..5)];
        out.push((
            format!("parse error at {a}, then {unlexable:?} at {b}"),
            format!("{}) {}{unlexable} {}", &src[..a], &src[a..b], &src[b..]),
        ));
        let unparsable = ["let", ";", "fn (", "global 1", "else", "+"][rng.gen_range(0..6)];
        let undeclared = "undeclared_zz = 1; ";
        if let Some(&i) = stmt_starts.get(rng.gen_range(0..stmt_starts.len().max(1))) {
            let a = starts[i];
            let b = starts[rng.gen_range(i..tokens + 1)];
            out.push((
                format!("lowering error at {a}, then {unparsable:?} at {b}"),
                format!(
                    "{}{undeclared}{}{unparsable} {}",
                    &src[..a],
                    &src[a..b],
                    &src[b..]
                ),
            ));
        }
    }
    out
}

/// Checks `sources` and their mutation sets; every kind of outcome must
/// have been seen, or the mutations are not doing their job.
fn run(sources: Vec<(String, String)>, scale: usize) {
    let (mut compiled, mut rejected) = (0usize, 0usize);
    for (i, (name, src)) in sources.iter().enumerate() {
        assert!(check(src, name), "{name}: seed programs compile");
        for (how, mutant) in mutants(src, 0x5EED + i as u64, scale) {
            if check(&mutant, &format!("{name}, {how}")) {
                compiled += 1;
            } else {
                rejected += 1;
            }
        }
    }
    assert!(
        rejected > 10 * sources.len() && compiled > 0,
        "{rejected} mutants rejected, {compiled} compiled"
    );
}

/// The full mutation set for each corpus file (≈ 300 bytes each).
#[test]
fn corpus_and_its_mutants_agree_with_the_reference() {
    run(corpus(), 1);
}

/// A fifth of the set for each fuzz program (≈ 3 KB each, fifty of them).
#[test]
fn fuzz_programs_and_their_mutants_agree_with_the_reference() {
    run(fuzz_programs(), 5);
}

/// One mutant of each kind for each project (≈ 500 KB each). What they
/// add is scale: many items between two errors, and shards that do not
/// see each other.
#[test]
fn projects_and_their_mutants_agree_with_the_reference() {
    run(projects(), usize::MAX);
}

#[test]
fn errors_of_every_class_agree_with_the_reference() {
    let cases = [
        // 1: lexing errors outrank everything, wherever they are.
        "fn a() { let x: int = true; return; }\nfn b() { let }\nfn c( {}\nfn d() { & }",
        "fn a( { @",
        "global g: int;\nglobal g: int;\n/* open",
        // 2: parse errors in file order, headers held back.
        "fn a() { return }\nfn b( { return; }",
        "fn a() { return; }\nfn b( { return; }\nfn c() { return }",
        "fn a() { x = 1; return; }\nfn b() { return }",
        "fn a() { let x: }\nfn b() { return; }",
        "fn a() -> { return; }",
        "fn a() { return; } }",
        "fn a() { if (c) {",
        "fn a() {",
        "fn a()",
        "global g int;",
        "let x: int = 1;",
        // 3: duplicates, after every body has parsed.
        "global g: int;\nglobal g: bool;\nfn a() { x = 1; return; }\nfn a() { return; }",
        "fn a() { x = 1; return; }\nfn a() { return; }",
        "fn a() { return; }\nfn a() { return }",
        "fn free(p: int*) { return; }",
        // 4: lowering errors in function order.
        "fn a() { return; }\nfn b() { x = 1; return; }\nfn c() { y = 1; return; }",
        "fn a() -> int { }",
    ];
    for src in cases {
        assert!(!check(src, src), "compiled: {src}");
    }
    for src in ["", "// nothing but a comment", "global g: int**;"] {
        assert!(check(src, src), "rejected: {src}");
    }
}

/// The scoping rule both pipelines share: what a branch arm declares ends
/// with the arm, also when the other arm returns.
#[test]
fn arm_declarations_do_not_leak_past_a_returning_arm() {
    let rejected = [
        "fn f(c: bool) -> int { if (c) { let y: int = 1; } else { return 0; } return y; }",
        "fn f(c: bool) -> int { if (c) { return 0; } else { let y: int = 1; } return y; }",
        "fn f(c: bool) -> int { if (c) { let y: int = 1; } else { let z: int = 2; } return y; }",
        "fn f(c: bool, d: bool) -> int {
            if (c) { return 0; } else if (d) { let y: int = 1; } else { return 2; }
            return y;
        }",
        "fn f(c: bool) -> int { while (c) { let y: int = 1; } return y; }",
    ];
    for src in rejected {
        assert!(!check(src, src), "accepted: {src}");
        let e = pinpoint_ir::frontend::compile(src).unwrap_err();
        assert_eq!(
            e.to_string().split(": ").last(),
            Some("unknown variable `y`"),
            "{src}"
        );
    }
    let accepted = [
        // Values of variables bound before the branch come from the arm.
        "fn f(c: bool) -> int { let y: int = 0; if (c) { y = 1; } else { return 0; } return y; }",
        "fn f(c: bool) -> int { let y: int = 0; if (c) { let y: int = 1; } else { return 0; } return y; }",
        "fn f(c: bool) -> int { let y: int = 0; while (c) { y = y + 1; return y; } return y; }",
        "fn f(c: bool, d: bool) -> int {
            let y: int = 0;
            if (c) { return 0; } else if (d) { y = 1; } else { return 2; }
            return y;
        }",
    ];
    for src in accepted {
        assert!(check(src, src), "rejected: {src}");
    }
}
