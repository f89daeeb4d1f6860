//! The paper's motivating example (Fig. 1/2): an inter-procedural
//! use-after-free hidden behind pointer indirection, calling contexts,
//! and path conditions.
//!
//! `bar` stores a freshly freed pointer `c` into the caller's cell
//! `*ptr` (under condition θ₃); `foo` reloads it as `f` and dereferences
//! it at `print(*f)` (under θ₂), but only on the θ₁ branch that called
//! `bar` in the first place. The holistic analysis finds exactly one
//! value-flow path — ⟨free(c), c, Y, return Y, L, f, print(*f)⟩ in the
//! paper's notation — and proves its condition θ₁ ∧ θ₃ ∧ θ₂ satisfiable,
//! while the alternative flow through `qux` is never explored.
//!
//! ```sh
//! cargo run --example figure1_uaf
//! ```

use pinpoint::{AnalysisBuilder, CheckerKind, Query};

const FIGURE1: &str = r#"
    global gb: int;

    fn foo(a: int*) {
        let ptr: int** = malloc();
        *ptr = a;
        if (nondet_bool()) {      // theta1
            bar(ptr);
        } else {
            qux(ptr);
        }
        let f: int* = *ptr;
        if (nondet_bool()) {      // theta2
            print(*f);
        }
        return;
    }

    fn bar(q: int**) {
        let c: int* = malloc();
        let t3: bool = *q != null;  // theta3
        if (t3) {
            *q = c;
            free(c);
        } else {
            if (nondet_bool()) {    // theta4
                *q = gb;
            }
        }
        return;
    }

    fn qux(r: int**) {
        if (nondet_bool()) {        // theta5
            *r = null;
        } else {
            *r = null;
        }
        return;
    }
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let analysis = AnalysisBuilder::new().build_source(FIGURE1)?;

    // The connector model at work: bar reads and writes *(q,1), so the
    // Fig. 3 transformation gave it an Aux formal parameter (X) and an
    // Aux return value (Y); foo's call site was rewritten to
    //   K = *ptr; {L} = bar(ptr, K); *ptr = L;
    let bar = analysis.module.func_by_name("bar").expect("bar exists");
    let shape = analysis.pta.shape(bar);
    println!(
        "bar's connectors: {} Aux formal parameter(s), {} Aux return value(s)",
        shape.aux_params.len(),
        shape.aux_rets.len()
    );

    let reports = analysis
        .session()
        .query(&Query::Check(CheckerKind::UseAfterFree))
        .into_reports();
    println!("\nuse-after-free reports: {}", reports.len());
    for r in &reports {
        println!("  {r}");
        println!(
            "  source in `{}`, sink in `{}`, path of {} steps, {} conjuncts solved",
            analysis.module.func(r.source_func).name,
            analysis.module.func(r.sink_func).name,
            r.path.len(),
            r.condition_size,
        );
    }

    assert_eq!(reports.len(), 1, "exactly the Fig. 1 bug");
    let pta = analysis.pta.total_stats();
    println!(
        "\nquasi path-sensitive pruning at the points-to stage: {} facts pruned, {} kept",
        pta.pruned, pta.kept
    );
    Ok(())
}
