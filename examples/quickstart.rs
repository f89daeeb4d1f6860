//! Quick start: compile a small program and run every checker.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use pinpoint::{AnalysisBuilder, CheckerKind, Query};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = r#"
        // A tiny session handler with two defects: a use-after-free of
        // the connection buffer, and tainted user input reaching fopen.
        fn main() {
            let buf: int* = malloc();
            handle(buf);
            return;
        }

        fn handle(buf: int*) {
            let n: int = fgetc();
            if (n < 0) {
                free(buf);
            }
            // Bug 1: buf may already be freed here.
            *buf = n;

            // Bug 2: untrusted n flows into a file open.
            let h: int = fopen(n);
            print(h);
            return;
        }
    "#;

    // The builder configures the pipeline (worker count, detection
    // configuration, cache directory); the artefact it produces is
    // immutable, so any number of sessions can query it.
    let analysis = AnalysisBuilder::new().build_source(source)?;
    println!(
        "analysed {} functions / {} instructions ({} SEG edges, {} terms)\n",
        analysis.module.funcs.len(),
        analysis.module.inst_count(),
        analysis.segs.edge_count,
        analysis.arena.len(),
    );

    // A session is a workspace borrowing the artefact: it answers
    // `Query` values and accumulates detection statistics across them.
    let mut session = analysis.session();
    for kind in CheckerKind::ALL {
        let reports = session.query(&Query::Check(kind)).into_reports();
        println!("{kind}: {} report(s)", reports.len());
        for r in &reports {
            println!("  {r}"); // reports are self-describing
        }
    }

    let stats = session.stats();
    println!(
        "\nsearch: {} vertices visited, {} candidates, {} refuted by SMT",
        stats.detect.visited, stats.detect.candidates, stats.detect.refuted,
    );
    Ok(())
}
