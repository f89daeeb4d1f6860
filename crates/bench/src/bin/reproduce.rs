//! Regenerates every table and figure of the paper's evaluation (§5) on
//! the generated workloads.
//!
//! ```sh
//! cargo run --release -p pinpoint-bench --bin reproduce -- all
//! cargo run --release -p pinpoint-bench --bin reproduce -- fig7 [--scale 40] [--budget-secs 30]
//! ```
//!
//! Subcommands: `fig7 fig8 fig9 fig10 table1 table2 table3 juliet
//! linear-solver ablations all`.
//!
//! Absolute numbers are not comparable to the paper (the substrate is a
//! generated mini-language corpus on one core, not MySQL on a 40-core
//! Xeon); the *shape* claims are what each experiment checks.

use pinpoint_bench::{fit, measure, CountingAlloc, Measurement};
use pinpoint_core::{Analysis, CheckerKind, DetectConfig, Query, Report, Workspace};
use pinpoint_workload::{
    generate, generate_juliet, generate_subject, GenConfig, Subject, SUBJECTS,
};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Edge budget for the layered baseline (≈ 2 GiB of graph on this
/// machine); exceeding it counts as the paper's out-of-memory band.
const EDGE_CAP: usize = 160_000_000;

#[derive(Debug, Clone)]
struct Options {
    /// Paper-size divisor for subjects (default 40: firefox → 200 KLoC).
    scale: f64,
    /// Per-stage time budget for the baseline (the "timeout" band).
    budget: Duration,
    /// Largest subject (paper KLoC) to include in the sweeps.
    max_paper_kloc: u32,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: 40.0,
            budget: Duration::from_secs(30),
            max_paper_kloc: 8000,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options::default();
    let mut cmd = "all".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                opts.scale = it.next().and_then(|v| v.parse().ok()).unwrap_or(40.0);
            }
            "--budget-secs" => {
                let s: u64 = it.next().and_then(|v| v.parse().ok()).unwrap_or(30);
                opts.budget = Duration::from_secs(s);
            }
            "--max-kloc" => {
                opts.max_paper_kloc = it.next().and_then(|v| v.parse().ok()).unwrap_or(8000);
            }
            other => cmd = other.to_string(),
        }
    }
    match cmd.as_str() {
        "fig7" => fig7_fig8(&opts, true),
        "fig8" => fig7_fig8(&opts, false),
        "fig9" => fig9(&opts),
        "fig10" => fig10(&opts),
        "table1" => table1(&opts),
        "table2" => table2(&opts),
        "table3" => table3(&opts),
        "juliet" => juliet(),
        "linear-solver" => linear_solver(&opts),
        "ablations" => ablations(),
        "all" => {
            fig7_fig8(&opts, true);
            fig7_fig8(&opts, false);
            fig9(&opts);
            fig10(&opts);
            table1(&opts);
            table2(&opts);
            table3(&opts);
            juliet();
            linear_solver(&opts);
            ablations();
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            eprintln!(
                "expected: fig7 fig8 fig9 fig10 table1 table2 table3 juliet linear-solver ablations all"
            );
            std::process::exit(2);
        }
    }
}

fn subjects(opts: &Options) -> Vec<&'static Subject> {
    SUBJECTS
        .iter()
        .filter(|s| s.paper_kloc <= opts.max_paper_kloc)
        .collect()
}

fn fmt_dur(d: Duration) -> String {
    if d.as_secs() >= 60 {
        format!("{:.1}min", d.as_secs_f64() / 60.0)
    } else if d.as_secs_f64() >= 1.0 {
        format!("{:.2}s", d.as_secs_f64())
    } else {
        format!("{:.1}ms", d.as_secs_f64() * 1000.0)
    }
}

/// Formats a measured peak as MiB, or `n/a` when the counting allocator
/// was not installed and no real peak exists.
fn fmt_mib(m: &Measurement) -> String {
    match m.peak_mib() {
        Some(mib) => format!("{mib:.1}"),
        None => "n/a".into(),
    }
}

/// Builds Pinpoint's SEG stage only (points-to + transformation + SEG).
/// The use-after-free checker's reports through `session`.
fn uaf(session: &mut Workspace<&Analysis>) -> Vec<Report> {
    session
        .query(&Query::Check(CheckerKind::UseAfterFree))
        .into_reports()
}

fn build_seg(source: &str) -> (Analysis, Measurement) {
    let module = pinpoint_ir::compile(source).expect("subject compiles");
    measure(move || Analysis::from_module(module))
}

/// Builds the layered baseline's FSVFG within the budget.
fn build_fsvfg(
    source: &str,
    budget: Duration,
) -> (
    Option<(pinpoint_ir::Module, pinpoint_baseline::Fsvfg)>,
    Measurement,
) {
    let module = pinpoint_ir::compile(source).expect("subject compiles");
    measure(move || {
        let deadline = Some(Instant::now() + budget);
        pinpoint_baseline::Fsvfg::build_within(&module, deadline, Some(EDGE_CAP))
            .map(|g| (module, g))
    })
}

// ---------------------------------------------------------------------
// Fig. 7 / Fig. 8: SEG vs FSVFG construction cost across subjects.
// ---------------------------------------------------------------------
fn fig7_fig8(opts: &Options, time_axis: bool) {
    if time_axis {
        println!("\n=== Figure 7: time to build SEG vs FSVFG (subjects ordered by size) ===");
    } else {
        println!("\n=== Figure 8: memory to build SEG vs FSVFG (subjects ordered by size) ===");
    }
    println!(
        "(paper sizes scaled 1/{}; FSVFG budget {} per subject)",
        opts.scale,
        fmt_dur(opts.budget)
    );
    println!(
        "{:<14} {:>9} {:>12} {:>14} {:>12} {:>14}  note",
        "subject", "KLoC", "SEG-time", "SEG-mem(MiB)", "FSVFG-time", "FSVFG-mem(MiB)"
    );
    let mut first_timeout: Option<&str> = None;
    for s in subjects(opts) {
        let project = generate_subject(s, opts.scale);
        let kloc = project.lines as f64 / 1000.0;
        let (_analysis, seg_m) = build_seg(&project.source);
        let (fsvfg, fs_m) = build_fsvfg(&project.source, opts.budget);
        let (ft, fm, note) = match &fsvfg {
            Some((_, g)) => (
                fmt_dur(fs_m.time),
                fmt_mib(&fs_m),
                format!("{} edges", g.edge_count),
            ),
            None => {
                if first_timeout.is_none() {
                    first_timeout = Some(s.name);
                }
                (
                    "TIMEOUT".into(),
                    format!("{}+", fmt_mib(&fs_m)),
                    String::new(),
                )
            }
        };
        println!(
            "{:<14} {:>9.1} {:>12} {:>14} {:>12} {:>14}  {}",
            s.name,
            kloc,
            fmt_dur(seg_m.time),
            fmt_mib(&seg_m),
            ft,
            fm,
            note
        );
    }
    if let Some(name) = first_timeout {
        println!(
            "shape check: FSVFG first exceeds its budget at `{name}`; SEG completes every subject \
             (paper: FSVFG times out above 135 KLoC, SEG is up to >400x faster)."
        );
    }
}

// ---------------------------------------------------------------------
// Fig. 9: end-to-end checker memory, SEG-based vs FSVFG-based.
// ---------------------------------------------------------------------
fn fig9(opts: &Options) {
    println!("\n=== Figure 9: end-to-end use-after-free checker memory ===");
    println!(
        "{:<14} {:>9} {:>16} {:>18}  note",
        "subject", "KLoC", "Pinpoint(MiB)", "FSVFG-based(MiB)"
    );
    for s in subjects(opts) {
        let project = generate_subject(s, opts.scale);
        let kloc = project.lines as f64 / 1000.0;
        let (reports, pp_m) = measure(|| {
            let a = Analysis::from_source(&project.source).expect("compiles");
            uaf(&mut a.session()).len()
        });
        let (layered, base_m) = measure(|| {
            let module = pinpoint_ir::compile(&project.source).expect("compiles");
            let deadline = Some(Instant::now() + opts.budget);
            pinpoint_baseline::Fsvfg::build_within(&module, deadline, Some(EDGE_CAP))
                .map(|g| pinpoint_baseline::layered_check_uaf(&module, &g).len())
        });
        let (base_mem, note) = match layered {
            Some(w) => (fmt_mib(&base_m), format!("{w} warnings")),
            None => (format!("{}+ (TIMEOUT)", fmt_mib(&base_m)), String::new()),
        };
        println!(
            "{:<14} {:>9.1} {:>16} {:>18}  pinpoint: {} reports {}",
            s.name,
            kloc,
            fmt_mib(&pp_m),
            base_mem,
            reports,
            note
        );
    }
}

// ---------------------------------------------------------------------
// Fig. 10: Pinpoint's time/memory vs KLoC with least-squares fits.
// ---------------------------------------------------------------------
fn fig10(opts: &Options) {
    println!("\n=== Figure 10: Pinpoint scalability (fit and R^2) ===");
    let mut time_pts: Vec<(f64, f64)> = Vec::new();
    let mut mem_pts: Vec<(f64, f64)> = Vec::new();
    println!("{:>9} {:>12} {:>12}", "KLoC", "time", "mem(MiB)");
    for s in subjects(opts) {
        let project = generate_subject(s, opts.scale);
        let kloc = project.lines as f64 / 1000.0;
        let (_r, m) = measure(|| {
            let a = Analysis::from_source(&project.source).expect("compiles");
            uaf(&mut a.session()).len()
        });
        println!("{:>9.1} {:>12} {:>12}", kloc, fmt_dur(m.time), fmt_mib(&m));
        time_pts.push((kloc, m.time.as_secs_f64()));
        if let Some(mib) = m.peak_mib() {
            mem_pts.push((kloc, mib));
        }
    }
    let tf = fit::linear_fit(&time_pts);
    let tq = fit::quadratic_fit(&time_pts);
    println!(
        "time:   linear fit y = {:.4}x + {:.3}, R^2 = {:.3} (quadratic R^2 = {:.3})",
        tf.a, tf.b, tf.r2, tq.r2
    );
    if mem_pts.is_empty() {
        println!("memory: no data (counting allocator not installed)");
        println!(
            "shape check: paper reports near-linear growth with R^2 > 0.9; measured linear R^2 = {:.3} (time).",
            tf.r2
        );
    } else {
        let mf = fit::linear_fit(&mem_pts);
        println!(
            "memory: linear fit y = {:.4}x + {:.3}, R^2 = {:.3}",
            mf.a, mf.b, mf.r2
        );
        println!(
            "shape check: paper reports near-linear growth with R^2 > 0.9; measured linear R^2 = {:.3} (time), {:.3} (memory).",
            tf.r2, mf.r2
        );
    }
}

// ---------------------------------------------------------------------
// Table 1: use-after-free checkers, Pinpoint vs the layered baseline.
// ---------------------------------------------------------------------
fn report_hits(analysis: &Analysis, reports: &[Report], marker: &str) -> bool {
    reports.iter().any(|r| {
        analysis.module.func(r.source_func).name.contains(marker)
            || analysis.module.func(r.sink_func).name.contains(marker)
    })
}

fn table1(opts: &Options) {
    println!("\n=== Table 1: use-after-free checkers (Pinpoint vs layered/SVF) ===");
    println!(
        "{:<14} {:>9} {:>10} {:>6} {:>9} | {:>12}",
        "subject", "KLoC", "#Reports", "#FP", "FP-rate", "SVF #Reports"
    );
    let mut total_reports = 0usize;
    let mut total_fp = 0usize;
    let mut total_layered = 0usize;
    for s in subjects(opts) {
        let project = generate_subject(s, opts.scale);
        let kloc = project.lines as f64 / 1000.0;
        let analysis = Analysis::from_source(&project.source).expect("compiles");
        let reports = uaf(&mut analysis.session());
        // FP accounting against ground truth: a report is a false positive
        // when it matches a decoy marker or no marker at all.
        let fp = reports
            .iter()
            .filter(|r| {
                let sf = &analysis.module.func(r.source_func).name;
                let kf = &analysis.module.func(r.sink_func).name;
                let matches_real = project
                    .bugs
                    .iter()
                    .any(|b| b.real && (sf.contains(&b.marker) || kf.contains(&b.marker)));
                !matches_real
            })
            .count();
        // Missed real bugs (recall spot check).
        let missed = project
            .bugs
            .iter()
            .filter(|b| b.real && !report_hits(&analysis, &reports, &b.marker))
            .count();
        let module = pinpoint_ir::compile(&project.source).expect("compiles");
        let deadline = Some(Instant::now() + opts.budget);
        let layered = pinpoint_baseline::Fsvfg::build_within(&module, deadline, Some(EDGE_CAP))
            .map(|g| pinpoint_baseline::layered_check_uaf(&module, &g).len());
        let layered_str = match layered {
            Some(n) => {
                total_layered += n;
                n.to_string()
            }
            None => "TIMEOUT".into(),
        };
        total_reports += reports.len();
        total_fp += fp;
        let rate = if reports.is_empty() {
            "0".into()
        } else {
            format!("{:.1}%", 100.0 * fp as f64 / reports.len() as f64)
        };
        println!(
            "{:<14} {:>9.1} {:>10} {:>6} {:>9} | {:>12}{}",
            s.name,
            kloc,
            reports.len(),
            fp,
            rate,
            layered_str,
            if missed > 0 {
                format!("   !! missed {missed} real bug(s)")
            } else {
                String::new()
            }
        );
    }
    let rate = if total_reports == 0 {
        0.0
    } else {
        100.0 * total_fp as f64 / total_reports as f64
    };
    println!(
        "TOTAL: pinpoint {total_reports} reports ({total_fp} FP, {rate:.1}%) vs layered {total_layered}+ warnings"
    );
    println!(
        "shape check: paper reports 14 Pinpoint reports at 14.3% FP vs ~10,000 SVF warnings (~1000x)."
    );
}

// ---------------------------------------------------------------------
// Table 2: taint checkers on the MySQL-class subject.
// ---------------------------------------------------------------------
fn table2(opts: &Options) {
    println!("\n=== Table 2: SEG-based taint checkers (MySQL-class subject) ===");
    let mysql = SUBJECTS.iter().find(|s| s.name == "mysql").expect("mysql");
    let kloc = f64::from(mysql.paper_kloc) / opts.scale;
    let project = generate(&GenConfig {
        seed: 2030,
        real_bugs: 3,
        decoys: 2,
        taint: true,
        ..GenConfig::default().with_target_kloc(kloc)
    });
    println!(
        "subject: generated mysql stand-in, {:.1} KLoC",
        project.lines as f64 / 1000.0
    );
    println!(
        "{:<26} {:>12} {:>10} {:>12}",
        "checker", "memory(MiB)", "time", "#FP/#Reports"
    );
    for (kind, label) in [
        (CheckerKind::PathTraversal, "Path Traversal Vuln."),
        (CheckerKind::DataTransmission, "Data Transmission Vuln."),
    ] {
        let ((reports, fp), m) = measure(|| {
            let a = Analysis::from_source(&project.source).expect("compiles");
            let reports = a.session().query(&Query::Check(kind)).into_reports();
            let fp = reports
                .iter()
                .filter(|r| {
                    let sf = &a.module.func(r.source_func).name;
                    let kf = &a.module.func(r.sink_func).name;
                    !project
                        .bugs
                        .iter()
                        .any(|b| b.real && (sf.contains(&b.marker) || kf.contains(&b.marker)))
                })
                .count();
            (reports.len(), fp)
        });
        println!(
            "{:<26} {:>12} {:>10} {:>9}/{}",
            label,
            fmt_mib(&m),
            fmt_dur(m.time),
            fp,
            reports
        );
    }
    println!("shape check: paper reports 11/56 and 24/92 FP/reports at ~1.5h, 43-53G on 2 MLoC.");
}

// ---------------------------------------------------------------------
// Table 3: the dense per-unit checker (Infer/CSA stand-in).
// ---------------------------------------------------------------------
fn table3(opts: &Options) {
    println!("\n=== Table 3: dense per-unit checker (Infer/CSA stand-in) ===");
    println!(
        "{:<14} {:>9} {:>10} {:>14} {:>16}",
        "subject", "KLoC", "time", "#FP/#Reports", "cross-unit missed"
    );
    let mut total_fp = 0usize;
    let mut total_rep = 0usize;
    for s in subjects(opts) {
        let project = generate_subject(s, opts.scale);
        let kloc = project.lines as f64 / 1000.0;
        let module = pinpoint_ir::compile(&project.source).expect("compiles");
        let (warnings, m) = measure(|| pinpoint_baseline::dense_check(&module));
        // Ground truth: intra-unit decoys become FPs, cross-unit real bugs
        // are missed.
        let fp = warnings
            .iter()
            .filter(|w| {
                let f = &module.func(w.func).name;
                !project.bugs.iter().any(|b| b.real && f.contains(&b.marker))
            })
            .count();
        let missed_cross = project
            .bugs
            .iter()
            .filter(|b| {
                b.real
                    && !warnings
                        .iter()
                        .any(|w| module.func(w.func).name.contains(&b.marker))
            })
            .count();
        total_fp += fp;
        total_rep += warnings.len();
        println!(
            "{:<14} {:>9.1} {:>10} {:>11}/{:<3} {:>16}",
            s.name,
            kloc,
            fmt_dur(m.time),
            fp,
            warnings.len(),
            missed_cross
        );
    }
    println!("TOTAL: {total_fp}/{total_rep} false positives");
    println!(
        "shape check: paper's Infer reports 35/35 FP, CSA 24/26 FP, and both miss cross-unit bugs."
    );
}

// ---------------------------------------------------------------------
// §5.1.2 recall: the Juliet-style suite.
// ---------------------------------------------------------------------
fn juliet() {
    println!("\n=== Juliet-style recall (51 variants x 28 cases = 1428) ===");
    let suite = generate_juliet(28);
    let (result, m) = measure(|| {
        let analysis = Analysis::from_source(&suite.source).expect("suite compiles");
        let reports = uaf(&mut analysis.session());
        let mut missed = Vec::new();
        for case in &suite.cases {
            let found = reports.iter().any(|r| {
                analysis
                    .module
                    .func(r.source_func)
                    .name
                    .contains(&case.marker)
                    || analysis
                        .module
                        .func(r.sink_func)
                        .name
                        .contains(&case.marker)
            });
            if !found {
                missed.push(case.variant);
            }
        }
        (suite.cases.len(), missed)
    });
    let (total, missed) = result;
    println!(
        "detected {}/{} cases ({} missed) in {} using {} MiB",
        total - missed.len(),
        total,
        missed.len(),
        fmt_dur(m.time),
        fmt_mib(&m)
    );
    println!("shape check: paper detects 1421/1421 (100% recall). missed variants: {missed:?}");
}

// ---------------------------------------------------------------------
// §3.1.1 claims: how much the linear-time solver discharges.
// ---------------------------------------------------------------------
fn linear_solver(opts: &Options) {
    println!("\n=== Linear-time solver effectiveness (§3.1.1) ===");
    let subject = SUBJECTS.iter().find(|s| s.name == "tmux").expect("tmux");
    let project = generate_subject(subject, opts.scale / 4.0);
    let analysis = Analysis::from_source(&project.source).expect("compiles");
    let config = DetectConfig {
        measure_linear: true,
        ..analysis.config()
    };
    let mut session = analysis.session().with_config(config);
    uaf(&mut session);
    let pta = analysis.pta.total_stats();
    let det = session.stats().detect;
    let sat_frac = if pta.linear_checks == 0 {
        0.0
    } else {
        100.0 * pta.kept as f64 / pta.linear_checks as f64
    };
    println!(
        "points-to stage: {} conditions checked, {} kept ({:.1}% satisfiable-or-unknown), {} pruned",
        pta.linear_checks, pta.kept, sat_frac, pta.pruned
    );
    let easy = if det.refuted == 0 {
        0.0
    } else {
        100.0 * det.linear_refuted as f64 / det.refuted as f64
    };
    println!(
        "detection stage: {} candidates, {} SMT-refuted, of which {} ({:.1}%) were 'easy' (apparent contradictions)",
        det.candidates, det.refuted, det.linear_refuted, easy
    );
    println!(
        "shape check: paper observes ~70% of points-to-stage conditions satisfiable and >90% of unsatisfiable conditions easy."
    );
}

// ---------------------------------------------------------------------
// Ablations of the design choices.
// ---------------------------------------------------------------------
fn ablations() {
    println!("\n=== Ablations ===");
    let project = generate(&GenConfig {
        seed: 99,
        real_bugs: 3,
        decoys: 3,
        taint: false,
        ..GenConfig::default().with_target_kloc(5.0)
    });

    // (a) Linear-time pruning on/off: SEG size and build time.
    for prune in [true, false] {
        let (counts, m) = measure(|| {
            let mut module = pinpoint_ir::compile(&project.source).expect("compiles");
            let cg = pinpoint_ir::CallGraph::new(&module);
            let config = pinpoint_pta::PtaConfig { prune };
            let off = &mut pinpoint_obs::TraceBuf::off();
            let pta = pinpoint_pta::analyze_module_with(&mut module, &config, off, &cg, None);
            let pta = pta.analysis;
            let deps: usize = pta.pta.iter().map(|p| p.mem_deps.len()).sum();
            deps
        });
        println!(
            "quasi path-sensitive pruning {:>3}: {} memory-dependence edges, {} build",
            if prune { "ON" } else { "OFF" },
            counts,
            fmt_dur(m.time)
        );
    }

    // (a2) VF summaries on/off (§3.3.2 compositionality): the freed
    // pointer is handed to many helpers, only one of which can sink it;
    // the summaries let the search skip entering the harmless helpers.
    let mut helpers = String::new();
    let mut calls = String::new();
    for i in 0..40 {
        helpers.push_str(&format!(
            "fn log{i}(p: int*, tag: int) {{ print(tag); return; }}\n"
        ));
        calls.push_str(&format!("    log{i}(p, {i});\n"));
    }
    let fanout_src = format!(
        "{helpers}fn hit(p: int*) {{ let x: int = *p; print(x); return; }}\n\
         fn main() {{\n    let p: int* = malloc();\n    free(p);\n{calls}    hit(p);\n    return;\n}}\n"
    );
    for use_summaries in [true, false] {
        let analysis = Analysis::from_source(&fanout_src).expect("fanout compiles");
        let config = DetectConfig {
            use_summaries,
            ..analysis.config()
        };
        let mut session = analysis.session().with_config(config);
        let (n, m) = measure(|| uaf(&mut session).len());
        let det = session.stats().detect;
        println!(
            "VF summaries (descents) {:>3}: {n} reports, {} vertices visited, \
             {} descents skipped, detect {}",
            if use_summaries { "ON" } else { "OFF" },
            det.visited,
            det.skipped_descents,
            fmt_dur(m.time)
        );
    }

    // (b) SMT solving on/off: report counts (path sensitivity).
    for solve in [true, false] {
        let analysis = Analysis::from_source(&project.source).expect("compiles");
        let config = DetectConfig {
            solve,
            ..analysis.config()
        };
        let mut session = analysis.session().with_config(config);
        let reports = uaf(&mut session);
        println!(
            "SMT path-feasibility {:>3}: {} reports ({} candidates)",
            if solve { "ON" } else { "OFF" },
            reports.len(),
            session.stats().detect.candidates
        );
    }

    // (c) Context-depth sweep (the paper uses 6 nested levels): a ladder
    // of bugs whose free sits 1..=6 calls below the dereferencing driver.
    let mut ladder = String::new();
    for k in 1..=6 {
        for lvl in 1..=k {
            if lvl == 1 {
                ladder.push_str(&format!("fn c{k}_l1(p: int*) {{ free(p); return; }}\n"));
            } else {
                ladder.push_str(&format!(
                    "fn c{k}_l{lvl}(p: int*) {{ c{k}_l{}(p); return; }}\n",
                    lvl - 1
                ));
            }
        }
        ladder.push_str(&format!(
            "fn c{k}_driver() {{\n    let p: int* = malloc();\n    c{k}_l{k}(p);\n    let x: int = *p;\n    print(x);\n    return;\n}}\n"
        ));
    }
    for depth in [1u32, 2, 4, 6] {
        let analysis = Analysis::from_source(&ladder).expect("ladder compiles");
        let config = DetectConfig {
            max_ctx_depth: depth,
            ..analysis.config()
        };
        let mut session = analysis.session().with_config(config);
        let (n, m) = measure(|| uaf(&mut session).len());
        println!(
            "context depth {depth}: {n}/6 ladder bugs found, detect {}",
            fmt_dur(m.time)
        );
    }
    // (d) Incremental re-analysis: a one-function edit on a mid-size
    // project re-analyses only the caller chain.
    let inc_project = generate(&GenConfig {
        seed: 123,
        real_bugs: 1,
        decoys: 1,
        taint: false,
        ..GenConfig::default().with_target_kloc(20.0)
    });
    let (mut ws, full_m) = measure(|| Workspace::open(&inc_project.source).expect("compiles"));
    let edited = {
        let needle = "fn filler1(";
        let start = inc_project.source.find(needle).expect("filler1");
        let brace = inc_project.source[start..].find('{').unwrap() + start + 1;
        format!(
            "{}\n    let hotfix: int = 1;\n    print(hotfix);{}",
            &inc_project.source[..brace],
            &inc_project.source[brace..]
        )
    };
    let (outcome, inc_m) = measure(|| ws.update_source(&edited).expect("incremental update"));
    println!(
        "incremental: 1-function edit on {} functions → {} re-analysed; full build {} vs incremental update {}",
        ws.analysis().module.funcs.len(),
        outcome.reanalyzed,
        fmt_dur(full_m.time),
        fmt_dur(inc_m.time)
    );
    println!("shape check: pruning shrinks the SEG; disabling SMT admits the decoys; shallow contexts miss deep bugs; edits pay for their caller chain only.");
}
