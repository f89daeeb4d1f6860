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
use pinpoint::{Analysis, AnalysisBuilder, Query, Workspace};
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
    for r in analysis.check_all() {
        out.push_str(&r.to_string());
        for (name, value) in &r.witness {
            out.push_str(&format!(" {name}={value}"));
        }
        out.push('\n');
    }
    for l in analysis.check_leaks() {
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
                s.check_all();
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
            let outcome = ws.update_source(&edited).expect("edited source compiles");
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
            let (w, c) = (ws.stats().pta, cold.stats.pta);
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
        let outcome = ws.update_source(&edited).expect("edited source compiles");
        assert!(!outcome.fell_back);
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
fn session_reports(
    mut session: pinpoint::DetectSession<'_>,
) -> (String, pinpoint::core::DetectStats) {
    let mut out = String::new();
    for r in session.check_all() {
        out.push_str(&r.to_string());
        for (name, value) in &r.witness {
            out.push_str(&format!(" {name}={value}"));
        }
        out.push('\n');
    }
    (out, session.stats().detect)
}

/// The summary gate across cache states: the ungated reference search,
/// a gated run on an empty cache directory, and one on the directory the
/// first left behind must all report byte-identically.
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
    // Summaries are forced on demand, so the edit must land where a gate
    // looks: `bug0_release` is the callee the use-after-free defect's
    // pointer is passed to.
    let edited = edit_in_func(
        &project.source,
        "fn bug0_release(",
        "fn bug0_release(p: int*) {",
        "fn bug0_release(p: int*) {\n    let edit_pad: int = 1;\n    print(edit_pad);\n",
    );
    for threads in [1usize, 4] {
        let dir = temp_cache(&format!("vfsum-{threads}"));
        let (ungated, _) =
            session_reports(build(&project.source, threads, None).session().ungated());
        let cold_analysis = build(&project.source, threads, Some(&dir));
        let (cold, cold_stats) = session_reports(cold_analysis.session());
        assert_eq!(cold, ungated, "cold gated vs ungated at {threads} threads");
        assert!(
            cold_stats.summary_built > 0 && cold_stats.summary_gated > 0,
            "cold run computes the summaries it demands: {cold_stats:?}"
        );
        let warm_analysis = build(&project.source, threads, Some(&dir));
        let (warm, warm_stats) = session_reports(warm_analysis.session());
        assert_eq!(warm, ungated, "warm gated vs ungated at {threads} threads");
        assert_eq!(
            (warm_stats.summary_built, warm_stats.summary_gated),
            (cold_stats.summary_built, cold_stats.summary_gated),
            "summaries are recomputed, not reloaded: {warm_stats:?}"
        );
        assert_eq!(
            warm_stats.verdict_misses, 0,
            "every condition was decided by the cold run: {warm_stats:?}"
        );
        let edited_analysis = build(&edited, threads, Some(&dir));
        let (ungated_edited, _) = session_reports(edited_analysis.session().ungated());
        let (gated_edited, edited_stats) = session_reports(edited_analysis.session());
        assert_eq!(
            gated_edited, ungated_edited,
            "post-edit gated vs ungated at {threads} threads"
        );
        assert!(
            edited_stats.summary_built > 0,
            "post-edit run forces what its gates read: {edited_stats:?}"
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
        let outcome = ws.update_source(&edited).expect("edited source compiles");
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
        let outcome = ws.update_source(edited).expect("edited source compiles");
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
    let outcome = ws.update_source(&edited).expect("edited source compiles");
    assert!(!outcome.fell_back && outcome.reanalyzed == 1, "{outcome:?}");
    let cold = builder
        .build_source(&edited)
        .expect("edited source compiles");
    assert_eq!(render_workspace(&mut ws), render_reports(&cold));
}
