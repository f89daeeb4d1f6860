//! An edit split around its changed bytes ([`Unit::resplit`]) equals the
//! whole-file split of the edited text ([`Unit::split`]): the same items,
//! spans, lines, body starts and ends, token count, tables and errors.

use pinpoint_ir::{Snapshot, Unit};
use std::sync::Arc;

const BASE: &str = "global counter: int;
global cell: int*;
fn helper(p: int*) -> int { let v: int = *p; return v; }
/* a block
   comment */
fn leaf(q: int**) { *q = null; return; }
fn user(c: bool) {
    let p: int* = malloc();
    if (c) { free(p); }
    let x: int = helper(p);
    print(x);
    return;
}
fn stash(p: int*) { *cell = p; return; }
fn main(c: bool) {
    let p: int* = malloc();
    user(c);
    stash(p);
    let y: int = helper(p);
    print(y);
    return;
}
";

/// Splits `src` both ways against `previous` and asserts they agree;
/// returns the snapshot of the new unit (`None` when the split fails)
/// with whether every function compiled, and the bytes the re-split
/// lexed.
fn check(previous: &Snapshot, src: &str, at: &str) -> (Option<(Snapshot, bool)>, usize) {
    match (Unit::split(src), Unit::resplit(src, previous)) {
        (Ok(whole), Ok((re, lexed))) => {
            assert_eq!(
                re.snapshot(text(src)),
                whole.snapshot(text(src)),
                "{at}: items"
            );
            assert_eq!(re.tokens(), whole.tokens(), "{at}: tokens");
            assert_eq!(
                re.tables_fingerprint(),
                whole.tables_fingerprint(),
                "{at}: tables"
            );
            let mut compiles = true;
            for i in 0..whole.func_count() {
                assert_eq!(re.slice(i), whole.slice(i), "{at}: slice {i}");
                let error = whole.compile_fn(i).err();
                assert_eq!(re.compile_fn(i).err(), error, "{at}: function {i}");
                compiles &= error.is_none();
            }
            assert!(lexed <= src.len(), "{at}: {lexed} of {}", src.len());
            (Some((re.snapshot(text(src)), compiles)), lexed)
        }
        (Err(whole), Err(re)) => {
            assert_eq!(re, whole, "{at}: error");
            (None, 0)
        }
        (whole, re) => panic!("{at}: whole {:?} vs re-split {:?}", whole.err(), re.err()),
    }
}

/// `src` as the shared string a snapshot keeps.
fn text(src: &str) -> Arc<String> {
    Arc::new(src.to_string())
}

fn edit(src: &str, from: &str, to: &str) -> String {
    assert!(src.contains(from), "`{from}` not in\n{src}");
    src.replacen(from, to, 1)
}

#[test]
fn edit_steps_resplit_like_the_whole_file() {
    let mut snapshot = Unit::split(BASE).unwrap().snapshot(text(BASE));
    let mut text = BASE.to_string();
    // Each step edits the last text that split. The window, when a step
    // pins it, runs from the first text to the second in the edited
    // source (an empty one: its end): the re-split starts at the last
    // item before the first changed byte and stops where it finds an old
    // item boundary again.
    type Step = (
        &'static str,
        fn(&str) -> String,
        Option<(&'static str, &'static str)>,
    );
    let steps: &[Step] = &[
        (
            "byte 0",
            |s| format!("// head\n{s}"),
            Some(("", "global counter")),
        ),
        (
            "end of file",
            |s| format!("{s}fn tail() {{ return; }}\n"),
            Some(("fn main", "")),
        ),
        (
            "in a block comment",
            |s| edit(s, "a block", "a longer\n block"),
            Some(("fn helper", "fn leaf")),
        ),
        (
            "unterminated comment",
            |s| edit(s, "   comment */", "   comment"),
            None,
        ),
        (
            "unterminated comment at the end",
            |s| format!("{s}/* open"),
            None,
        ),
        // The brace swallows the rest of the file into `user`, so no item
        // boundary after it is an old one moved: the re-split runs to the
        // end of the file (and `user` then fails to parse).
        (
            "unmatched brace",
            |s| edit(s, "if (c) { free(p); }", "if (c) { { free(p); }"),
            Some(("fn user", "")),
        ),
        (
            "brace matched",
            |s| edit(s, "if (c) { free(p); }", "if (c) { if (c) { free(p); } }"),
            Some(("fn user", "fn stash")),
        ),
        (
            "function inserted",
            |s| {
                edit(
                    s,
                    "fn stash(",
                    "fn added(x: int) -> int { return x; }\nfn stash(",
                )
            },
            Some(("fn added", "fn stash")),
        ),
        // Whole items deleted: the re-split resyncs where it starts.
        (
            "function removed",
            |s| edit(s, "fn added(x: int) -> int { return x; }\n", ""),
            Some(("fn stash", "fn stash")),
        ),
        (
            "global edited",
            |s| edit(s, "global cell: int*;", "global cell: int**;"),
            Some(("global cell", "fn helper")),
        ),
        (
            "global renamed",
            |s| edit(s, "global counter: int;", "global total: int;"),
            Some(("global total", "global cell")),
        ),
        (
            "error in the window",
            |s| edit(s, "fn leaf(q: int**) {", "fn leaf(q: int** {"),
            None,
        ),
        (
            "error after the window",
            |s| edit(s, "print(y);", "print(y;"),
            Some(("fn main", "fn tail")),
        ),
        (
            "lex error after a malformed header",
            |s| {
                edit(
                    &edit(s, "fn leaf(q: int**) {", "fn leaf(q: int** {"),
                    "print(y);",
                    "print(y & y);",
                )
            },
            None,
        ),
        (
            "body error before a malformed header",
            |s| {
                edit(
                    &edit(s, "let v: int = *p;", "let v: int = *p"),
                    "fn stash(p: int*) {",
                    "fn stash(p: int* {",
                )
            },
            None,
        ),
        // The whole text is the shared suffix: the re-split resyncs
        // where it starts.
        ("unchanged", |s| s.to_string(), Some(("fn tail", "fn tail"))),
    ];
    for &(name, step, window) in steps {
        let src = step(&text);
        let (next, lexed) = check(&snapshot, &src, name);
        if let Some((from, to)) = window {
            let at = |marker: &str| src.find(marker).unwrap();
            let end = if to.is_empty() { src.len() } else { at(to) };
            let start = if from.is_empty() { 0 } else { at(from) };
            assert_eq!(lexed, end - start, "{name}");
        }
        // An editor keeps the last text that compiled.
        if let Some((next, true)) = next {
            (snapshot, text) = (next, src);
        }
    }
}

/// Minimal SplitMix64, so the splices below are deterministic.
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

#[test]
fn random_splices_resplit_like_the_whole_file() {
    const PIECES: &[&str] = &[
        "",
        " ",
        "\n",
        "{",
        "}",
        ";",
        "/*",
        "*/",
        "//",
        "fn",
        "global",
        "(",
        ")",
        "x",
        "&",
        "fn f() { return; }\n",
        "global g: int;\n",
        "let z: int = 1;",
        "\"",
    ];
    let mut rng = Mix(0x5EED);
    let mut snapshot = Unit::split(BASE).unwrap().snapshot(text(BASE));
    let mut text = BASE.to_string();
    let mut accepted = 0;
    for round in 0..600 {
        let a = rng.below(text.len() + 1);
        let b = (a + rng.below(24)).min(text.len());
        let with = if rng.below(3) == 0 {
            // A piece of the text itself: a moved or duplicated item.
            let c = rng.below(text.len());
            text[c..(c + rng.below(80)).min(text.len())].to_string()
        } else {
            PIECES[rng.below(PIECES.len())].to_string()
        };
        let src = format!("{}{with}{}", &text[..a], &text[b..]);
        let (next, _) = check(
            &snapshot,
            &src,
            &format!("splice {round}: {a}..{b} <- {with:?}"),
        );
        // Any text that splits can be re-split from.
        if let Some((next, _)) = next {
            accepted += 1;
            (snapshot, text) = (next, src);
        }
        if round % 50 == 49 {
            // Back to a text with many items, so the splices keep
            // landing between them.
            let (next, _) = check(&snapshot, BASE, "reset");
            (snapshot, text) = (next.unwrap().0, BASE.to_string());
        }
    }
    assert!(accepted > 100, "only {accepted} splices split");
}
