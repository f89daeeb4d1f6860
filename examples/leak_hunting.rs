//! Memory-leak hunting on a small resource-manager scenario, showing the
//! two report grades (never-freed and conditionally-freed) and the SMT
//! witness on the conditional one.
//!
//! ```sh
//! cargo run --example leak_hunting
//! ```

use pinpoint::core::LeakKind;
use pinpoint::{AnalysisBuilder, Query};

const MANAGER: &str = r#"
    // A connection manager: sessions are pooled, buffers are scratch.

    fn open_session() -> int* {
        let s: int* = malloc();
        return s;
    }

    fn close_session(s: int*) {
        free(s);
        return;
    }

    fn handle(keepalive: bool) {
        let s: int* = malloc();
        *s = 1;
        // LEAK (conditional): a kept-alive session is never released —
        // the "keepalive cache" was never implemented. (The free must be
        // local to the allocating function for the SMT-refined grade;
        // cross-function ownership like open/close_session below is
        // handled by the reachability grade only.)
        if (!keepalive) {
            free(s);
        }
        return;
    }

    fn render() {
        // LEAK (never freed): the scratch buffer has no free anywhere.
        let scratch: int* = malloc();
        *scratch = 0;
        let v: int = *scratch;
        print(v);
        return;
    }

    fn roundtrip() {
        // Not a leak: allocated through the pool API, used, released —
        // the traversal follows the pointer out of open_session's return
        // and into close_session's free.
        let tmp: int* = open_session();
        *tmp = 7;
        close_session(tmp);
        return;
    }
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let analysis = AnalysisBuilder::new().build_source(MANAGER)?;
    let leaks = analysis.session().query(&Query::Leaks).into_leaks();

    println!("{} leak(s) found:\n", leaks.len());
    for l in &leaks {
        let f = analysis.module.func(l.func);
        match l.kind {
            LeakKind::NeverFreed => {
                println!(
                    "  [never freed] allocation at {} in `{}`",
                    l.alloc_site, f.name
                );
            }
            LeakKind::ConditionallyFreed => {
                let witness: Vec<String> = l
                    .witness
                    .iter()
                    .map(|(n, v)| format!("{n} = {v}"))
                    .collect();
                println!(
                    "  [conditionally freed] allocation at {} in `{}` — leaks when {}",
                    l.alloc_site,
                    f.name,
                    witness.join(", ")
                );
            }
        }
    }

    assert_eq!(leaks.len(), 2, "{leaks:?}");
    assert!(leaks.iter().any(|l| l.kind == LeakKind::NeverFreed));
    let conditional = leaks
        .iter()
        .find(|l| l.kind == LeakKind::ConditionallyFreed)
        .expect("the keepalive leak");
    assert!(
        conditional
            .witness
            .iter()
            .any(|(n, v)| n.ends_with(":keepalive") && *v),
        "the witness pins keepalive = true: {:?}",
        conditional.witness
    );
    println!("\nroundtrip's pooled session is correctly silent: the traversal");
    println!("follows the pointer out of open_session's return and into");
    println!("close_session's free before deciding anything.");
    Ok(())
}
