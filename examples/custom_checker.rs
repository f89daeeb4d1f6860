//! Defining a project-specific checker (§4.1: "we have been continuously
//! adding checkers … problems that can be modeled as value-flow paths are
//! straightforward to solve").
//!
//! Here the "project" has its own API: `read_form` returns untrusted form
//! data, `db_exec` runs a query. Untrusted data reaching the query engine
//! is an injection defect — a value-flow property Pinpoint checks with
//! the same machinery as the built-ins, including path sensitivity.
//!
//! ```sh
//! cargo run --example custom_checker
//! ```

use pinpoint::core::spec::{SinkSpec, SourceSpec, Spec};
use pinpoint::{AnalysisBuilder, Query};

const APP: &str = r#"
    // The project's own API surface (ordinary functions).
    fn read_form() -> int {
        let raw: int = recv();
        return raw;
    }

    fn db_exec(query: int) -> int {
        print(query);
        return 0;
    }

    fn sanitize(v: int) -> int {
        // Not modelled as cleansing (matching the paper's taint
        // checkers, which skip sanitizer modelling) — it is just a
        // function the value flows through.
        return v + 1;
    }

    fn handle_request(admin: bool) {
        let input: int = read_form();
        let cleaned: int = sanitize(input);
        if (admin) {
            // BUG: form data reaches the query engine.
            let r1: int = db_exec(cleaned);
            print(r1);
        }
        return;
    }

    fn handle_static(admin: bool) {
        let input: int = read_form();
        let fixed: int = 42;
        if (!admin) {
            // Safe: only the constant reaches the engine.
            let r2: int = db_exec(fixed);
            print(r2);
        }
        return;
    }
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = Spec {
        name: "form-injection".into(),
        source: SourceSpec::CallReceiver(vec!["read_form".into()]),
        sink: SinkSpec::Calls(vec!["db_exec".into()]),
        traverses_transforms: true,
    };

    let analysis = AnalysisBuilder::new().build_source(APP)?;
    let reports = analysis
        .session()
        .query(&Query::Custom(spec.clone()))
        .into_reports();

    println!(
        "custom checker `{}`: {} report(s)",
        spec.name,
        reports.len()
    );
    for r in &reports {
        println!("  {r}");
        if !r.witness.is_empty() {
            let w: Vec<String> = r
                .witness
                .iter()
                .map(|(n, v)| format!("{n} = {v}"))
                .collect();
            println!("  witness: {}", w.join(", "));
        }
    }

    assert_eq!(reports.len(), 1, "only the admin path leaks form data");
    assert!(
        reports[0]
            .witness
            .iter()
            .any(|(n, v)| n.ends_with(":admin") && *v),
        "the witness must enable the admin branch"
    );
    Ok(())
}
