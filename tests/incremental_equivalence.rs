//! Differential tests for the two incremental-reuse layers:
//!
//! * the **persistent verdict store** — a warm run (solver verdicts
//!   primed by checking a previous version) must produce byte-identical
//!   reports to a cold run of the same source, while solving less;
//! * the **in-memory workspace** — a long-lived [`Workspace`] absorbing
//!   the same edits through `update_source` must report byte-identically
//!   to a cold build, while answering untouched source queries from its
//!   query cache.
//!
//! Both across seeded edit sets — body edits, connector-shape edits,
//! added and deleted functions — and across thread counts. An update that
//! changes the function set is a cold build, and an edit's analysis does
//! not depend on the thread count either.

use pinpoint::workload::{generate, GenConfig};
use pinpoint::{Analysis, AnalysisBuilder, DetectConfig, Query, Workspace};
use std::path::{Path, PathBuf};

/// Minimal SplitMix64 (the workspace vendors no PRNG dependency).
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

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pinpoint-inc-eq-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Canonical rendering of everything a user sees: every checker's
/// reports (with witnesses) plus leak reports, in deterministic order.
fn render(analysis: &Analysis) -> String {
    let mut out = String::new();
    for r in analysis.session().query(&Query::All).into_reports() {
        out.push_str(&r.to_string());
        for (name, value) in &r.witness {
            out.push_str(&format!(" {name}={value}"));
        }
        out.push('\n');
    }
    for l in analysis.session().query(&Query::Leaks).into_leaks() {
        out.push_str(&format!(
            "[leak:{:?}] {} in {}\n",
            l.kind,
            l.alloc_site,
            analysis.module.func(l.func).name
        ));
    }
    out.push_str(&format!("terms={}\n", analysis.arena.len()));
    out
}

/// [`render`] without the trailing `terms=` line: warm in-memory updates
/// keep an append-only arena whose *length* (dead terms included)
/// legitimately differs from a cold build's, while every user-visible
/// report stays byte-identical.
fn render_reports(analysis: &Analysis) -> String {
    let full = render(analysis);
    let cut = full.rfind("terms=").unwrap();
    full[..cut].to_string()
}

/// The workspace-side twin of [`render_reports`]: same format, produced
/// through the query-cached check path.
fn render_workspace(ws: &mut Workspace) -> String {
    let mut out = String::new();
    for r in ws.query(&Query::All).into_reports() {
        out.push_str(&r.to_string());
        for (name, value) in &r.witness {
            out.push_str(&format!(" {name}={value}"));
        }
        out.push('\n');
    }
    let leaks = ws.query(&Query::Leaks).into_leaks();
    let module = &ws.analysis().module;
    for l in leaks {
        out.push_str(&format!(
            "[leak:{:?}] {} in {}\n",
            l.kind,
            l.alloc_site,
            module.func(l.func).name
        ));
    }
    out
}

/// After an update of `ws` from `old` to `src`, with `stamps` its update
/// stamps before: the fingerprints it keeps never drift from a cold
/// compile of `src`, and the functions it re-analysed (those whose
/// stamps moved) are those whose transitive keys
/// ([`pinpoint::cache::module_keys`]) differ between cold compiles of
/// `old` and `src` — every function when the function set changed.
fn assert_keys_fresh(ws: &Workspace, stamps: &[u64], old: &str, src: &str) {
    let compile = |src: &str| pinpoint::compile(src).expect("source compiles");
    let (old, cold) = (compile(old), compile(src));
    assert_eq!(
        ws.func_fingerprints(),
        pinpoint::ir::module_fingerprints(&cold),
        "local fingerprints drifted"
    );
    let config = pinpoint::cache::config_fp(&pinpoint::pta::PtaConfig::default());
    let (was, now) = (
        pinpoint::cache::module_keys(&old, config),
        pinpoint::cache::module_keys(&cold, config),
    );
    let names =
        |m: &pinpoint::ir::Module| m.funcs.iter().map(|f| f.name.clone()).collect::<Vec<_>>();
    let same_shape = names(&old) == names(&cold);
    let keyed: Vec<bool> = (0..now.len())
        .map(|i| !same_shape || was[i] != now[i])
        .collect();
    let stamped: Vec<bool> = (ws.func_stamps().iter().enumerate())
        .map(|(i, s)| stamps.get(i) != Some(s))
        .collect();
    assert_eq!(
        stamped, keyed,
        "the re-analysed functions are not the key diff"
    );
}

fn build(src: &str, threads: usize, cache: Option<&Path>) -> Analysis {
    let mut b = AnalysisBuilder::new().threads(threads);
    if let Some(dir) = cache {
        b = b.cache_dir(dir);
    }
    b.build_source(src).expect("generated source compiles")
}

/// Byte offsets of the region of the function whose header starts with
/// `marker` (up to the next top-level `fn ` or end of file).
fn func_region(src: &str, marker: &str) -> (usize, usize) {
    let start = src
        .find(marker)
        .unwrap_or_else(|| panic!("no function matching `{marker}`"));
    let rest = &src[start + marker.len()..];
    let end = rest
        .find("\nfn ")
        .map(|i| start + marker.len() + i + 1)
        .unwrap_or(src.len());
    (start, end)
}

/// Replaces the first occurrence of `from` inside one function's region.
fn edit_in_func(src: &str, func_marker: &str, from: &str, to: &str) -> String {
    let (start, end) = func_region(src, func_marker);
    let region = &src[start..end];
    let at = region
        .find(from)
        .unwrap_or_else(|| panic!("`{from}` not found in `{func_marker}`"));
    let mut out = String::with_capacity(src.len() + to.len());
    out.push_str(&src[..start + at]);
    out.push_str(to);
    out.push_str(&src[start + at + from.len()..]);
    out
}

/// Picks a filler function (by seeded index) whose body contains every
/// needed marker.
fn pick_filler(src: &str, rng: &mut Mix, needles: &[&str]) -> String {
    let candidates: Vec<usize> = (0..)
        .map(|i| format!("fn filler{i}("))
        .take_while(|m| src.contains(m.as_str()))
        .enumerate()
        .filter(|(_, m)| {
            let (start, end) = func_region(src, m);
            needles.iter().all(|n| src[start..end].contains(n))
        })
        .map(|(i, _)| i)
        .collect();
    assert!(!candidates.is_empty(), "no filler contains {needles:?}");
    format!("fn filler{}(", candidates[rng.below(candidates.len())])
}

/// The seeded edit set: `(name, base source, edited source)` triples.
fn edit_set(base: &str, rng: &mut Mix) -> Vec<(&'static str, String, String)> {
    let mut edits = Vec::new();
    // Body edit: change a constant in one filler (same connector shape).
    let f = pick_filler(base, rng, &["let x0: int = 1;"]);
    edits.push((
        "body-edit",
        base.to_string(),
        edit_in_func(base, &f, "let x0: int = 1;", "let x0: int = 3;"),
    ));
    // Connector-shape edit: add a store through the pointer parameter,
    // growing the function's Mod set (and hence its Aux shape).
    let f = pick_filler(base, rng, &["(q: int**)", "    return p0;"]);
    edits.push((
        "connector-edit",
        base.to_string(),
        edit_in_func(base, &f, "    return p0;", "    *q = p0;\n    return p0;"),
    ));
    // Added function: a new (uncalled) function appended at the end.
    let extra = "fn appended_extra(p: int*) {\n    free(p);\n    let x: int = *p;\n    print(x);\n    return;\n}\n";
    edits.push(("added-function", base.to_string(), format!("{base}{extra}")));
    // Deleted function: prime with the appended variant, then analyze
    // the source without it.
    edits.push((
        "deleted-function",
        format!("{base}{extra}"),
        base.to_string(),
    ));
    edits
}

#[test]
fn warm_runs_byte_identical_across_seeded_edits() {
    let project = generate(&GenConfig {
        seed: 21,
        functions: 24,
        stmts_per_function: 8,
        real_bugs: 2,
        decoys: 2,
        taint: true,
    });
    let mut rng = Mix(0xE511);
    for (name, primed, edited) in edit_set(&project.source, &mut rng) {
        for threads in [1usize, 4] {
            let dir = temp_cache(&format!("{name}-{threads}"));
            // Prime the store by checking the pre-edit source.
            render(&build(&primed, threads, Some(&dir)));
            let warm = build(&edited, threads, Some(&dir));
            let cold = build(&edited, threads, None);
            assert_eq!(
                render(&warm),
                render(&cold),
                "{name} at {threads} threads must be byte-identical"
            );
            // The edit leaves most conditions as they were, and verdicts
            // are keyed by condition, not by program version.
            assert_eq!(warm.stats.cache.hits, 1, "{:?}", warm.stats.cache);
            let solved = |a: &Analysis| {
                let mut s = a.session();
                s.query(&Query::All);
                s.stats().detect
            };
            let (w, c) = (solved(&warm), solved(&cold));
            assert!(
                w.verdict_hits > 0 && w.verdict_misses < c.verdict_misses,
                "{name} at {threads} threads: expected replayed verdicts, got {w:?} vs cold {c:?}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The in-memory twin of `warm_runs_byte_identical_across_seeded_edits`:
/// a live [`Workspace`] absorbing each seeded edit through
/// `update_source` must report byte-identically to a cold build of the
/// edited source, at 1 and 4 threads. Same-shape edits (body,
/// connector) must additionally answer some untouched source queries
/// from the query cache; shape changes (added/deleted function) fall
/// back to a full rebuild and legitimately drop it.
#[test]
fn workspace_updates_byte_identical_across_seeded_edits() {
    let project = generate(&GenConfig {
        seed: 21,
        functions: 24,
        stmts_per_function: 8,
        real_bugs: 2,
        decoys: 2,
        taint: true,
    });
    let mut rng = Mix(0xE511);
    for (name, primed, edited) in edit_set(&project.source, &mut rng) {
        let same_shape = matches!(name, "body-edit" | "connector-edit");
        // `prune(false)` is the builder knob the update path must carry
        // through to re-analysed functions, fallback included.
        for (threads, prune) in [(1usize, true), (4, true), (1, false)] {
            let builder = AnalysisBuilder::new().threads(threads).prune(prune);
            let mut ws = builder
                .clone()
                .open_workspace(&primed)
                .expect("generated source compiles");
            // Populate the query cache from the pre-edit program.
            let _ = render_workspace(&mut ws);
            let stamps = ws.func_stamps().to_vec();
            let outcome = ws.update_source(&edited).expect("edited source compiles");
            assert_keys_fresh(&ws, &stamps, &primed, &edited);
            assert_eq!(
                outcome.fell_back, !same_shape,
                "{name}: fallback iff the function set changed shape"
            );
            let before = ws.counters();
            let warm = render_workspace(&mut ws);
            let after = ws.counters();
            let cold = builder
                .build_source(&edited)
                .expect("edited source compiles");
            assert_eq!(
                warm,
                render_reports(&cold),
                "{name} at {threads} threads, prune={prune} must be byte-identical"
            );
            let (w, c) = (ws.analysis().pta.total_stats(), cold.pta.total_stats());
            assert_eq!(
                (w.pruned, w.kept, w.linear_checks),
                (c.pruned, c.kept, c.linear_checks),
                "{name} at {threads} threads, prune={prune}: points-to pruning counters"
            );
            if same_shape {
                assert!(
                    after.queries_reused > before.queries_reused,
                    "{name} at {threads} threads: expected query reuse, got {after:?}"
                );
            }
        }
    }
}

/// One workspace absorbing a cumulative script — a body edit, a connector
/// edit, a global declared ahead of the others (every global id shifts,
/// so every function is lowered again), an appended function and its
/// removal — reports like a cold build after every step, with keys that
/// never drift from the cold compile's.
#[test]
fn cumulative_edits_keep_reports_and_keys_cold() {
    let project = generate(&GenConfig {
        seed: 21,
        functions: 24,
        stmts_per_function: 8,
        real_bugs: 2,
        decoys: 2,
        taint: true,
    });
    let mut rng = Mix(0xE511);
    let f = pick_filler(&project.source, &mut rng, &["let x0: int = 1;"]);
    let body = edit_in_func(&project.source, &f, "let x0: int = 1;", "let x0: int = 3;");
    let f = pick_filler(&body, &mut rng, &["(q: int**)", "    return p0;"]);
    let connector = edit_in_func(&body, &f, "    return p0;", "    *q = p0;\n    return p0;");
    let global = format!("global edit_first: int;\n{connector}");
    let extra = "fn appended_extra(p: int*) {\n    free(p);\n    return;\n}\n";
    let appended = format!("{global}{extra}");
    let script = [body, connector, global.clone(), appended, global];
    for threads in [1usize, 2] {
        let builder = AnalysisBuilder::new().threads(threads);
        let mut ws = builder
            .clone()
            .open_workspace(&project.source)
            .expect("generated source compiles");
        let _ = render_workspace(&mut ws);
        let mut old = &project.source;
        for (step, src) in script.iter().enumerate() {
            let stamps = ws.func_stamps().to_vec();
            let outcome = ws.update_source(src).expect("edited source compiles");
            assert_keys_fresh(&ws, &stamps, old, src);
            old = src;
            let cold = builder
                .clone()
                .build_source(src)
                .expect("edited source compiles");
            assert_eq!(
                render_workspace(&mut ws),
                render_reports(&cold),
                "step {step} at {threads} threads: {outcome:?}"
            );
        }
    }
}

/// The headline workspace acceptance property: after a one-function
/// edit of a ~20-kLoC generated project, a warm `check` re-runs only
/// the source queries whose search cone the edit touched (≥ 90%
/// answered from the cache) and still reports byte-identically to a
/// cold build, at 1 and 4 threads.
#[test]
fn warm_workspace_check_reruns_only_affected_queries() {
    let project = generate(&GenConfig {
        seed: 33,
        real_bugs: 2,
        decoys: 2,
        taint: true,
        ..GenConfig::default().with_target_kloc(20.0)
    });
    // Bug drivers are uncalled roots: editing one dirties only itself.
    let edited = edit_in_func(
        &project.source,
        "fn bug0_driver(",
        "fn bug0_driver(g: bool) {\n",
        "fn bug0_driver(g: bool) {\n    let edit_pad: int = 1;\n    print(edit_pad);\n",
    );
    for threads in [1usize, 4] {
        let mut ws = AnalysisBuilder::new()
            .threads(threads)
            .open_workspace(&project.source)
            .expect("generated source compiles");
        let _ = render_workspace(&mut ws);
        let stamps = ws.func_stamps().to_vec();
        let outcome = ws.update_source(&edited).expect("edited source compiles");
        assert_keys_fresh(&ws, &stamps, &project.source, &edited);
        assert!(!outcome.fell_back);
        assert_eq!(
            outcome.lowered, outcome.reanalyzed,
            "a root's edit lowers the root alone: {outcome:?}"
        );
        assert!(
            outcome.reused > outcome.reanalyzed,
            "one-function edit splices most artefacts: {outcome:?}"
        );
        let before = ws.counters();
        let warm = render_workspace(&mut ws);
        let after = ws.counters();
        let cold = build(&edited, threads, None);
        assert_eq!(
            warm,
            render_reports(&cold),
            "warm workspace reports must equal a cold build at {threads} threads"
        );
        let reused = after.queries_reused - before.queries_reused;
        let rerun = after.queries_rerun - before.queries_rerun;
        let ratio = reused as f64 / (reused + rerun) as f64;
        assert!(
            ratio >= 0.9,
            "expected ≥90% query reuse after one-function edit at {threads} threads, \
             got {:.1}% ({reused} reused / {rerun} rerun)",
            ratio * 100.0
        );
    }
}

/// Whole-program reports of `session` rendered with their witnesses,
/// plus the session's detection counters.
fn session_reports(mut session: Workspace<&Analysis>) -> (String, pinpoint::core::DetectStats) {
    let mut out = String::new();
    for r in session.query(&Query::All).into_reports() {
        out.push_str(&r.to_string());
        for (name, value) in &r.witness {
            out.push_str(&format!(" {name}={value}"));
        }
        out.push('\n');
    }
    (out, session.stats().detect)
}

/// The summary-free reference search over `a`: no descent pruning,
/// every other setting as built.
fn summary_free(a: &Analysis) -> Workspace<&Analysis> {
    a.session().with_config(DetectConfig {
        use_summaries: false,
        ..a.config()
    })
}

/// The interface summaries across cache states: the summary-free
/// reference search, a summarised run on an empty cache directory, and
/// one on the directory the first left behind must all report
/// byte-identically.
/// Summaries are never persisted — the second run computes exactly what
/// the first did — while its conditions replay from the verdict store.
/// After a one-function edit inside a demanded cone the same holds.
#[test]
fn summary_engine_warm_equals_cold_equals_demand() {
    let project = generate(&GenConfig {
        seed: 47,
        real_bugs: 2,
        decoys: 2,
        taint: true,
        ..GenConfig::default().with_target_kloc(10.0)
    });
    // Summaries are forced on demand, so the edit must land where a
    // descent looks: `bug0_release` is the callee the use-after-free
    // defect's pointer is passed to.
    let edited = edit_in_func(
        &project.source,
        "fn bug0_release(",
        "fn bug0_release(p: int*) {",
        "fn bug0_release(p: int*) {\n    let edit_pad: int = 1;\n    print(edit_pad);\n",
    );
    for threads in [1usize, 4] {
        let dir = temp_cache(&format!("vfsum-{threads}"));
        let (reference, reference_stats) =
            session_reports(summary_free(&build(&project.source, threads, None)));
        let cold_analysis = build(&project.source, threads, Some(&dir));
        let (cold, cold_stats) = session_reports(cold_analysis.session());
        assert_eq!(cold, reference, "cold vs summary-free at {threads} threads");
        assert!(
            cold_stats.visited <= reference_stats.visited,
            "descent pruning only removes vertices: {cold_stats:?} vs {reference_stats:?}"
        );
        let warm_analysis = build(&project.source, threads, Some(&dir));
        let (warm, warm_stats) = session_reports(warm_analysis.session());
        assert_eq!(warm, reference, "warm vs summary-free at {threads} threads");
        assert_eq!(
            (warm_stats.skipped_descents, warm_stats.visited),
            (cold_stats.skipped_descents, cold_stats.visited),
            "summaries are recomputed, not reloaded: {warm_stats:?}"
        );
        assert_eq!(
            warm_stats.verdict_misses, 0,
            "every condition was decided by the cold run: {warm_stats:?}"
        );
        let edited_analysis = build(&edited, threads, Some(&dir));
        let (reference_edited, reference_edited_stats) =
            session_reports(summary_free(&edited_analysis));
        let (summarised_edited, edited_stats) = session_reports(edited_analysis.session());
        assert_eq!(
            summarised_edited, reference_edited,
            "post-edit vs summary-free at {threads} threads"
        );
        assert!(
            edited_stats.visited <= reference_edited_stats.visited,
            "post-edit pruning only removes vertices: {edited_stats:?}"
        );
        let only_objects: Vec<String> = std::fs::read_dir(dir.join("objects"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            matches!(only_objects.as_slice(), [name] if name.starts_with("verdicts-")),
            "{only_objects:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The `gen_project --fuzz` module of `seed` with `functions` helpers.
fn fuzz_module(seed: u64, functions: usize) -> String {
    pinpoint::workload::fuzzgen::generate(&pinpoint::workload::fuzzgen::FuzzGenConfig {
        seed,
        functions,
        max_stmts: 10,
        globals: 4,
        recursion: true,
    })
}

/// Line ranges `(header line, closing line)` of the helpers `f0`, `f1`,
/// … of a fuzz-grammar module, by helper index.
fn fuzz_helpers(lines: &[&str]) -> Vec<(usize, usize)> {
    let mut helpers = Vec::new();
    while let Some(start) = lines
        .iter()
        .position(|l| l.starts_with(&format!("fn f{}(", helpers.len())))
    {
        let end = start + lines[start..].iter().position(|l| *l == "}").unwrap();
        helpers.push((start, end));
    }
    helpers
}

/// The helpers `fK` that `text` calls, as `K`s.
fn helper_calls(text: &str) -> impl Iterator<Item = usize> + '_ {
    text.match_indices('f').filter_map(|(i, _)| {
        let before = text[..i].chars().next_back();
        if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            return None;
        }
        let digits = text[i + 1..].find(|c: char| !c.is_ascii_digit())?;
        let rest = &text[i + 1 + digits..];
        (digits > 0 && rest.starts_with('(')).then(|| text[i + 1..i + 1 + digits].parse().unwrap())
    })
}

/// Whether `line` is a top-level call statement of a helper body: the
/// grammar's `v = fK(…);`, `fK(…);` and `print(fK(…));`, or a guarded call
/// [`fuzz_edit`] inserted.
fn is_call_statement(line: &str) -> bool {
    let Some(stmt) = line.strip_prefix("    ") else {
        return false;
    };
    let plain = !stmt.starts_with(' ') && !stmt.starts_with("let ") && !stmt.starts_with("return");
    plain && helper_calls(stmt).next().is_some()
}

/// One seeded edit of a fuzz-grammar module: a body pad (`step` 0 mod 4),
/// a deleted call statement (1), a copied call statement (2), or a
/// guarded call from a helper to one of its callers, which merges their
/// SCCs (3; deleting that call later splits them again). A kind with
/// nothing to edit falls back to a pad.
fn fuzz_edit(src: &str, rng: &mut Mix, step: usize) -> String {
    let mut lines: Vec<&str> = src.lines().collect();
    let helpers = fuzz_helpers(&lines);
    let calls: Vec<usize> = (helpers.iter())
        .flat_map(|&(start, end)| start + 1..end)
        .filter(|&i| is_call_statement(lines[i]))
        .collect();
    // (callee, caller) helper pairs.
    let n = helpers.len();
    let mut edges: Vec<(usize, usize)> = (0..n)
        .flat_map(|c| {
            let (start, end) = helpers[c];
            let body = lines[start + 1..end].iter().flat_map(|l| helper_calls(l));
            body.filter(move |&g| g != c && g < n).map(move |g| (g, c))
        })
        .collect();
    edges.sort_unstable();
    edges.dedup();
    let (guarded, pad);
    match step % 4 {
        1 if !calls.is_empty() => {
            lines.remove(calls[rng.below(calls.len())]);
        }
        2 if !calls.is_empty() => {
            let at = calls[rng.below(calls.len())];
            lines.insert(at, lines[at]);
        }
        3 if !edges.is_empty() => {
            let (g, c) = edges[rng.below(edges.len())];
            // The caller's shape fixes its arguments and result; every
            // helper declares `v0`, `v1`, `b0`, `m0` and `w0`.
            let call = match c % 7 {
                0 => format!("v1 = f{c}();"),
                1 => format!("v1 = f{c}(v0, v1);"),
                2 => format!("v1 = f{c}(m0);"),
                3 => format!("m0 = f{c}(w0);"),
                4 => format!("b0 = f{c}(b0, v0);"),
                5 => format!("f{c}(m0, w0);"),
                _ => format!("m0 = f{c}();"),
            };
            guarded = format!("    if (nondet_bool()) {{ {call} }}");
            lines.insert(helpers[g].1 - 1, &guarded);
        }
        _ => {
            let (start, _) = helpers[rng.below(n)];
            pad = format!("    let pad{step}: int = {step};\n    print(pad{step});");
            lines.insert(start + 1, &pad);
        }
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// Cumulative edits of recursive fuzz-grammar modules that merge and
/// split SCCs: after every step the functions an update re-analysed are
/// the diff of the transitive keys, and the reports are a cold build's.
#[test]
fn scc_merging_edits_reanalyse_the_key_diff() {
    let mut scc_moves = 0;
    for seed in 1..=6 {
        let mut rng = Mix(seed);
        let mut src = fuzz_module(seed, 40);
        let builder = AnalysisBuilder::new().threads(1);
        let mut ws = builder
            .clone()
            .open_workspace(&src)
            .expect("generated source compiles");
        let _ = render_workspace(&mut ws);
        for step in 0..16 {
            let edited = fuzz_edit(&src, &mut rng, step);
            let (stamps, sccs) = (
                ws.func_stamps().to_vec(),
                ws.analysis().callgraph.scc_count(),
            );
            let outcome = ws.update_source(&edited).expect("edited source compiles");
            assert_keys_fresh(&ws, &stamps, &src, &edited);
            scc_moves += usize::from(ws.analysis().callgraph.scc_count() != sccs);
            let cold = builder.clone().build_source(&edited).unwrap();
            assert_eq!(
                render_workspace(&mut ws),
                render_reports(&cold),
                "seed {seed} step {step}: {outcome:?}"
            );
            src = edited;
        }
    }
    assert!(
        scc_moves >= 10,
        "the edits merged or split {scc_moves} SCCs"
    );
}

/// An update that adds a function splices nothing, so it must *be* a cold
/// build: same arena, same witnesses. The smallest grammar module found
/// where re-running points-to in place instead gave a different witness.
#[test]
fn function_set_change_equals_a_cold_build() {
    let base = fuzz_module(791, 6);
    let edited = format!("{base}\nfn brand_new() {{ return; }}\n");
    for threads in [1usize, 4] {
        let builder = AnalysisBuilder::new().threads(threads);
        let mut ws = builder
            .clone()
            .open_workspace(&base)
            .expect("generated source compiles");
        let stamps = ws.func_stamps().to_vec();
        let outcome = ws.update_source(&edited).expect("edited source compiles");
        assert_keys_fresh(&ws, &stamps, &base, &edited);
        assert!(outcome.fell_back, "{outcome:?}");
        let cold = builder
            .build_source(&edited)
            .expect("edited source compiles");
        assert_eq!(
            render_workspace(&mut ws),
            render_reports(&cold),
            "added function at {threads} threads"
        );
        assert_eq!(ws.analysis().arena.len(), cold.arena.len());
    }
}

/// Everything an edit analyses — arena, interner, shapes, points-to facts,
/// graphs — down to the `TermId`, rendered for comparison.
fn render_analysis(a: &Analysis) -> String {
    format!(
        "terms={} symbols={}\n{:?}\n{:?}\n{:?}\n",
        a.arena.len(),
        a.pta.symbols.len(),
        a.pta.shapes,
        a.pta.pta,
        a.segs.segs,
    )
}

/// Edits shard like builds do: a connector-shape edit, which re-analyses
/// the edited function and its callers, leaves byte-identical analyses at
/// 1 and 4 threads.
#[test]
fn edits_are_thread_count_invariant() {
    let project = generate(&GenConfig {
        seed: 21,
        functions: 24,
        stmts_per_function: 8,
        real_bugs: 2,
        decoys: 2,
        taint: true,
    });
    let mut rng = Mix(0xE511);
    let edits = edit_set(&project.source, &mut rng);
    let (_, base, edited) = &edits[1];
    let updated = |threads: usize| {
        let mut ws = AnalysisBuilder::new()
            .threads(threads)
            .open_workspace(base)
            .expect("generated source compiles");
        let stamps = ws.func_stamps().to_vec();
        let outcome = ws.update_source(edited).expect("edited source compiles");
        assert_keys_fresh(&ws, &stamps, base, edited);
        assert!(!outcome.fell_back && outcome.reanalyzed > 1, "{outcome:?}");
        render_analysis(ws.analysis())
    };
    assert_eq!(updated(1), updated(4));
}

/// A known limit, not a regression: after a check, a one-function edit of
/// the seed-16 dense module through `update_source` gives 4 witnesses that
/// differ from a cold check of the same text. The edited function's terms
/// are appended to the previous arena, so they are numbered differently
/// than a cold build numbers them, and the SAT models that become
/// witnesses follow `TermId` order.
#[test]
#[ignore = "needs fingerprint-ordered atoms, which change pinned report digests"]
fn one_function_edit_after_a_check_equals_a_cold_build() {
    let base = fuzz_module(16, 555);
    let edited = edit_in_func(&base, "fn f256(", "let v0: int = 3;", "let v0: int = 41;");
    let builder = AnalysisBuilder::new().threads(1);
    let mut ws = builder
        .clone()
        .open_workspace(&base)
        .expect("generated source compiles");
    let _ = render_workspace(&mut ws);
    let stamps = ws.func_stamps().to_vec();
    let outcome = ws.update_source(&edited).expect("edited source compiles");
    assert_keys_fresh(&ws, &stamps, &base, &edited);
    assert!(!outcome.fell_back && outcome.reanalyzed == 1, "{outcome:?}");
    let cold = builder
        .build_source(&edited)
        .expect("edited source compiles");
    assert_eq!(render_workspace(&mut ws), render_reports(&cold));
}
