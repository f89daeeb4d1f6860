//! Textual pretty-printer for the IR, used in tests, examples, and
//! debugging output.

use crate::ir::{Const, Function, Inst, Module, Terminator, ValueId};
use std::fmt::Write;

/// Renders a whole module.
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    for g in &m.globals {
        let _ = writeln!(out, "global {}: {}", g.name, g.ty);
    }
    for (_, f) in m.iter_funcs() {
        out.push_str(&print_function(m, f));
        out.push('\n');
    }
    out
}

/// Renders one function.
pub fn print_function(m: &Module, f: &Function) -> String {
    let mut out = String::new();
    let params: Vec<String> = f
        .params
        .iter()
        .map(|&p| format!("{}: {}", vname(f, p), f.ty(p)))
        .collect();
    let rets: Vec<String> = f.ret_tys.iter().map(|t| t.to_string()).collect();
    let _ = writeln!(
        out,
        "fn {}({}){} {{",
        f.name,
        params.join(", "),
        if rets.is_empty() {
            String::new()
        } else {
            format!(" -> ({})", rets.join(", "))
        }
    );
    for (bi, blk) in f.blocks.iter().enumerate() {
        let _ = writeln!(out, "bb{bi}:");
        for inst in &blk.insts {
            let _ = writeln!(out, "  {}", print_inst(m, f, inst));
        }
        let _ = writeln!(out, "  {}", print_term(f, &blk.term));
    }
    out.push_str("}\n");
    out
}

fn vname(f: &Function, v: ValueId) -> String {
    format!("%{}.{}", v.0, f.value_name(v))
}

fn print_inst(m: &Module, f: &Function, inst: &Inst) -> String {
    match inst {
        Inst::Const { dst, value } => format!(
            "{} = const {}",
            vname(f, *dst),
            match value {
                Const::Int(v) => v.to_string(),
                Const::Bool(b) => b.to_string(),
                Const::Null => "null".to_string(),
            }
        ),
        Inst::Copy { dst, src } => format!("{} = {}", vname(f, *dst), vname(f, *src)),
        Inst::Phi { dst, incomings } => {
            let args: Vec<String> = incomings
                .iter()
                .map(|(b, v)| format!("[bb{}: {}]", b.0, vname(f, *v)))
                .collect();
            format!("{} = phi {}", vname(f, *dst), args.join(", "))
        }
        Inst::Bin { dst, op, lhs, rhs } => format!(
            "{} = {} {op} {}",
            vname(f, *dst),
            vname(f, *lhs),
            vname(f, *rhs)
        ),
        Inst::Un { dst, op, operand } => {
            format!("{} = {op}{}", vname(f, *dst), vname(f, *operand))
        }
        Inst::Load { dst, ptr, depth } => {
            format!("{} = load({}, {depth})", vname(f, *dst), vname(f, *ptr))
        }
        Inst::Store { ptr, depth, src } => {
            format!("store({}, {depth}) = {}", vname(f, *ptr), vname(f, *src))
        }
        Inst::Alloc { dst } => format!("{} = malloc", vname(f, *dst)),
        Inst::GlobalAddr { dst, global } => format!(
            "{} = &{}",
            vname(f, *dst),
            m.globals[global.0 as usize].name
        ),
        Inst::Call { .. } => {
            let call = inst.as_call().expect("a call");
            let callee = m.callee_name(call.callee);
            let ds: Vec<String> = call.dsts.iter().map(|&d| vname(f, d)).collect();
            let argt: Vec<String> = call.args.iter().map(|&a| vname(f, a)).collect();
            if ds.is_empty() {
                format!("call {callee}({})", argt.join(", "))
            } else {
                format!("{{{}}} = call {callee}({})", ds.join(", "), argt.join(", "))
            }
        }
    }
}

fn print_term(f: &Function, t: &Terminator) -> String {
    match t {
        Terminator::Jump(b) => format!("jump bb{}", b.0),
        Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        } => format!("br {} ? bb{} : bb{}", vname(f, *cond), then_bb.0, else_bb.0),
        Terminator::Return(vs) => {
            let vals: Vec<String> = vs.iter().map(|&v| vname(f, v)).collect();
            format!("return {{{}}}", vals.join(", "))
        }
        Terminator::Unreachable => "unreachable".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::compile;

    #[test]
    fn prints_round_trippable_shape() {
        let m = compile(
            "global g: int;
                 fn f(c: bool, p: int**) -> int {
                    let x: int = 0;
                    if (c) { x = 1; } else { *p = g; }
                    return x;
                 }",
        )
        .unwrap();
        let text = print_module(&m);
        assert!(text.contains("global g: int"));
        assert!(text.contains("fn f("));
        assert!(text.contains("phi"));
        assert!(text.contains("store"));
        assert!(text.contains("&g"));
        assert!(text.contains("return"));
    }

    #[test]
    fn prints_calls_with_receivers() {
        let m = compile(
            "fn g() -> int { return 1; }
                 fn f() { let x: int = g(); print(x); return; }",
        )
        .unwrap();
        let text = print_module(&m);
        assert!(text.contains("= call g()"));
        assert!(text.contains("call print("));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::frontend::compile;

    #[test]
    fn prints_every_instruction_kind() {
        let m = compile(
            "global g: int;
                 fn callee(v: int) -> int { return v; }
                 fn f(c: bool, p: int**) -> int {
                    let x: int = 1;            // Const
                    let y: int = x;            // Copy
                    let z: int = x + y;        // Bin
                    let w: int = -z;           // Un
                    let m0: int** = malloc();  // Alloc
                    let ga: int* = g;          // GlobalAddr
                    *m0 = ga;                  // Store
                    let ld: int* = *m0;        // Load
                    print(ld);                 // Call (void)
                    let r: int = callee(w);    // Call (receiver)
                    let out: int = 0;
                    if (c) { out = r; } else { out = w; } // Phi at join
                    return out;
                 }",
        )
        .unwrap();
        let f = m.func(m.func_by_name("f").unwrap());
        let text = print_function(&m, f);
        for needle in [
            "= const 1",
            "= malloc",
            "= &g",
            "store(",
            "= load(",
            "call print(",
            "= call callee(",
            "= phi",
            "br ",
            "jump bb",
            "return {",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn multi_value_return_printed() {
        // After a connector-style transformation returns are tuples.
        use crate::ir::{Inst, Terminator};
        use crate::types::Type;
        let mut m = compile("fn f(q: int**) -> int { return 1; }").unwrap();
        let fid = m.func_by_name("f").unwrap();
        let f = m.func_mut(fid);
        let aux = f.new_value("aux_out_p0d1", Type::Int.ptr_to());
        let rb = f.return_block().unwrap();
        let q = f.params[0];
        f.blocks[rb.0 as usize].insts.push(Inst::Load {
            dst: aux,
            ptr: q,
            depth: 1,
        });
        if let Terminator::Return(vals) = &mut f.blocks[rb.0 as usize].term {
            vals.push(aux);
        }
        f.ret_tys.push(Type::Int.ptr_to());
        let f = m.func(fid);
        let text = print_function(&m, f);
        assert!(text.contains("-> (int, int*)"), "{text}");
        assert!(text.contains("aux_out_p0d1}"), "{text}");
    }
}
