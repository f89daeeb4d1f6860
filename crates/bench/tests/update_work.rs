//! Work guard for an update — counts, not clocks. Its own test binary
//! because it installs the counting global allocator; one `#[test]`
//! because the counters are process-wide.
//!
//! What it pins: a one-function body edit costs what the edit costs, not
//! what the module costs. The allocation calls of an update are counted
//! over a run of edits on a 20 and a 60 KLoC project; three times the
//! functions may cost at most half as many calls again.

use pinpoint_bench::CountingAlloc;
use pinpoint_core::AnalysisBuilder;
use pinpoint_workload::gen::{generate, GenConfig};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Edits per project.
const EDITS: usize = 20;

/// The median allocation calls and bytes of one `update_source` over
/// [`EDITS`] cumulative filler-body edits of the generated project of
/// `kloc` thousand lines, and its function count.
fn update_work(kloc: f64) -> (usize, usize, usize) {
    let project = generate(&GenConfig {
        seed: 1,
        ..GenConfig::default().with_target_kloc(kloc)
    });
    let mut ws = AnalysisBuilder::new()
        .threads(1)
        .open_workspace(&project.source)
        .expect("generated projects compile");
    let fillers = project.source.matches("\nfn filler").count();
    let mut source = project.source.clone();
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let (mut calls, mut bytes) = (Vec::new(), Vec::new());
    for edit in 1..=EDITS {
        // The body edit of the serve benchmark: a fresh statement at the
        // top of a random filler function.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let header = format!("fn filler{}(", state % fillers as u64);
        let start = source.find(&header).expect("every filler is defined");
        let brace = start + source[start..].find('{').expect("a body follows");
        let pad =
            format!("\n    let update_pad_{edit}: int = {edit};\n    print(update_pad_{edit});");
        source.insert_str(brace + 1, &pad);
        let (c0, b0) = (CountingAlloc::calls(), CountingAlloc::bytes());
        let outcome = ws.update_source(&source).expect("the edit compiles");
        calls.push(CountingAlloc::calls() - c0);
        bytes.push(CountingAlloc::bytes() - b0);
        // A filler can have callers, which the edit dirties too; the
        // call graph stays.
        assert!(outcome.callgraph_kept, "{outcome:?}");
    }
    calls.sort_unstable();
    bytes.sort_unstable();
    let funcs = ws.analysis().module.funcs.len();
    (calls[EDITS / 2], bytes[EDITS / 2], funcs)
}

#[test]
fn an_update_allocates_for_the_edit_not_the_module() {
    let (small_calls, small_bytes, small_funcs) = update_work(20.0);
    let (large_calls, large_bytes, large_funcs) = update_work(60.0);
    for (kloc, funcs, calls, bytes) in [
        (20, small_funcs, small_calls, small_bytes),
        (60, large_funcs, large_calls, large_bytes),
    ] {
        eprintln!("{kloc} KLoC: {funcs} functions, an update makes {calls} allocation calls for {bytes} B (medians of {EDITS})");
    }
    assert!(CountingAlloc::installed());
    assert!(
        large_calls * 2 <= small_calls * 3,
        "an update's allocation calls grow with the module: {small_calls} at 20 KLoC, {large_calls} at 60 KLoC"
    );
}
