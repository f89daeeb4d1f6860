//! Taint checking (§4.1): path-traversal and data-transmission defects
//! modelled as value-flow paths, on a small "server" scenario.
//!
//! ```sh
//! cargo run --example taint_analysis
//! ```

use pinpoint::{AnalysisBuilder, CheckerKind, Query};

const SERVER: &str = r#"
    // A request handler: reads a path component from the network,
    // normalises it, and opens the file — a path-traversal defect
    // (CWE-23) unless validation intervenes. A second endpoint leaks
    // the stored credential over the wire (CWE-402).

    fn read_request() -> int {
        let raw: int = recv();
        let trimmed: int = raw - 32;
        return trimmed;
    }

    fn serve_file() {
        let component: int = read_request();
        // BUG: untrusted data reaches fopen through two calls and
        // an arithmetic transformation.
        let handle: int = fopen(component + 1);
        print(handle);
        return;
    }

    fn telemetry(debug: bool) {
        let secret: int = getpass();
        let masked: int = 0;
        if (debug) {
            masked = secret;
        }
        if (debug) {
            // BUG: the credential escapes when debug is on.
            sendto(masked);
        }
        return;
    }

    fn telemetry_safe(debug: bool) {
        let secret: int = getpass();
        let masked: int = 0;
        if (debug) {
            masked = secret;
        }
        if (!debug) {
            // Infeasible: masked is never the secret here. The SMT
            // solver refutes debug ∧ ¬debug.
            sendto(masked);
        }
        return;
    }
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let analysis = AnalysisBuilder::new().build_source(SERVER)?;
    let mut session = analysis.session();

    let pt = session
        .query(&Query::Check(CheckerKind::PathTraversal))
        .into_reports();
    println!("path-traversal reports: {}", pt.len());
    for r in &pt {
        println!("  {r}");
    }
    assert_eq!(pt.len(), 1, "recv → fopen across two functions");

    let dt = session
        .query(&Query::Check(CheckerKind::DataTransmission))
        .into_reports();
    println!("\ndata-transmission reports: {}", dt.len());
    for r in &dt {
        println!("  {r}");
    }
    assert_eq!(
        dt.len(),
        1,
        "only the feasible leak; telemetry_safe's flow is refuted"
    );

    println!(
        "\nSMT refuted {} infeasible candidate(s) — that is the path \
         sensitivity a layered checker gives up",
        session.stats().detect.refuted
    );
    Ok(())
}
