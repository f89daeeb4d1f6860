//! Machine-readable exports: Graphviz SEG dumps (for the paper's
//! Fig. 4-style visualisations) and the JSON report renderings shared by
//! the CLI's `--json` output and the serve protocol.

use crate::detect::Report;
use crate::leak::LeakReport;
use crate::seg::{EdgeKind, ModuleSeg};
use pinpoint_ir::{FuncId, Module};
use pinpoint_obs::json;
use pinpoint_smt::TermArena;
use std::fmt::Write;

/// Renders value-flow reports as the JSON array used by `pinpoint check
/// --json` and the serve protocol's `reports` events: one object per
/// report with the property, endpoint functions, the step-by-step path,
/// and the SMT witness assignment.
pub fn reports_json(module: &Module, reports: &[Report]) -> String {
    let mut out = String::from("[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let witness: Vec<String> = r
            .witness
            .iter()
            .map(|(n, v)| format!("{{\"var\":\"{}\",\"value\":{v}}}", json::escape(n)))
            .collect();
        let path: Vec<String> = r
            .path
            .iter()
            .map(|s| {
                let f = module.func(s.func);
                format!(
                    "{{\"function\":\"{}\",\"value\":\"{}\",\"note\":\"{}\"}}",
                    json::escape(&f.name),
                    json::escape(&f.value(s.value).name),
                    json::escape(s.note)
                )
            })
            .collect();
        let _ = write!(
            out,
            "{{\"property\":\"{}\",\"source_function\":\"{}\",\"sink_function\":\"{}\",\"sink_role\":\"{:?}\",\"path\":[{}],\"witness\":[{}]}}",
            json::escape(&r.property),
            json::escape(&r.source_func_name),
            json::escape(&r.sink_func_name),
            r.sink_role,
            path.join(","),
            witness.join(",")
        );
    }
    out.push(']');
    out
}

/// Renders leak reports as the JSON array used by `pinpoint leaks
/// --json` and the serve protocol's `leaks` events.
pub fn leaks_json(module: &Module, reports: &[LeakReport]) -> String {
    let mut out = String::from("[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"function\":\"{}\",\"kind\":\"{:?}\",\"site\":\"{}\"}}",
            json::escape(&module.func(r.func).name),
            r.kind,
            r.alloc_site
        );
    }
    out.push(']');
    out
}

/// Renders one function's SEG as a Graphviz `digraph`.
///
/// Solid edges are data dependences (labelled with their condition when
/// it is not `true`, as in the paper's Fig. 4); dashed edges mark
/// operand-to-result (transform) flow; bold edges are store-to-load
/// memory dependences.
pub fn seg_to_dot(module: &Module, segs: &ModuleSeg, arena: &TermArena, fid: FuncId) -> String {
    let f = module.func(fid);
    let seg = segs.seg(fid);
    let mut out = String::new();
    let _ = writeln!(out, "digraph seg_{} {{", f.name);
    let _ = writeln!(out, "  label=\"SEG of {}\";", f.name);
    let _ = writeln!(out, "  node [shape=ellipse, fontsize=10];");
    // Vertices: every value that participates in an edge.
    for v in (0..f.values.len() as u32).map(pinpoint_ir::ValueId) {
        if !seg.succs(v).is_empty() || !seg.preds(v).is_empty() {
            let _ = writeln!(out, "  v{} [label=\"{}\"];", v.0, escape(&f.value(v).name));
        }
    }
    for e in seg.edges() {
        let style = match e.kind {
            EdgeKind::Direct => "solid",
            EdgeKind::Memory => "bold",
            EdgeKind::Transform => "dashed",
        };
        let label = if arena.is_true(e.cond) {
            String::new()
        } else {
            format!(", label=\"{}\"", escape(&arena.display(e.cond)))
        };
        let _ = writeln!(
            out,
            "  v{} -> v{} [style={style}{label}];",
            e.src.0, e.dst.0
        );
    }
    // Control dependences per block, as dashed edges from a block node.
    for bi in 0..seg.block_count() {
        let deps = seg.control_deps(pinpoint_ir::BlockId(bi as u32));
        if deps.is_empty() {
            continue;
        }
        let _ = writeln!(out, "  bb{bi} [shape=box, label=\"bb{bi}\"];");
        for (cv, pol) in deps {
            let _ = writeln!(
                out,
                "  bb{bi} -> v{} [style=dotted, label=\"{}\"];",
                cv.0,
                if *pol { "true" } else { "false" }
            );
        }
    }
    out.push_str("}\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Analysis;

    #[test]
    fn dot_output_shape() {
        let a = Analysis::from_source(
            "fn f(c: bool, x: int*, y: int*) -> int* {
                let r: int* = null;
                if (c) { r = x; } else { r = y; }
                return r;
            }",
        )
        .unwrap();
        let fid = a.module.func_by_name("f").unwrap();
        let dot = seg_to_dot(&a.module, &a.segs, &a.arena, fid);
        assert!(dot.starts_with("digraph seg_f {"));
        assert!(dot.contains("->"), "has edges");
        assert!(dot.contains("label="), "φ edges carry conditions");
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn dot_escapes_quotes() {
        assert_eq!(escape("a\"b"), "a\\\"b");
    }
}
