//! Checker specifications: which statements are sources, which are sinks,
//! and which SEG edges a property may traverse.
//!
//! Pinpoint models every supported property as a *value-flow path* from a
//! bug-specific source vertex to a bug-specific sink vertex (§4.1):
//!
//! * **use-after-free / double-free** — source: the pointer argument of
//!   `free(x)`; sinks: any dereference of a value the freed pointer flows
//!   to, or a second `free`;
//! * **path-traversal taint** — source: values returned by `fgetc`/`recv`;
//!   sink: arguments of `fopen`;
//! * **data-transmission taint** — source: values returned by `getpass`;
//!   sink: arguments of `sendto`;
//! * **null dereference** — source: the `null` constant; sinks:
//!   dereferences.
//!
//! Taint properties flow through arithmetic (a tainted byte stays tainted
//! after `+ 1`), so they traverse *transform* edges; pointer properties do
//! not (the result of pointer arithmetic on this IR is not the same
//! memory).

use pinpoint_ir::{intrinsics, Const, Function, Inst, InstId, ValueId};
use std::fmt;

/// The property a checker looks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckerKind {
    /// Use-after-free, including double-free (§5.1's property).
    UseAfterFree,
    /// Path-traversal taint (CWE-23, §4.1).
    PathTraversal,
    /// Sensitive-data-transmission taint (CWE-402, §4.1).
    DataTransmission,
    /// Null-pointer dereference (an additional value-flow checker showing
    /// framework generality).
    NullDeref,
}

impl CheckerKind {
    /// All supported checkers.
    pub const ALL: [CheckerKind; 4] = [
        CheckerKind::UseAfterFree,
        CheckerKind::PathTraversal,
        CheckerKind::DataTransmission,
        CheckerKind::NullDeref,
    ];

    /// `true` if the property propagates through unary/binary operations.
    pub fn traverses_transforms(self) -> bool {
        matches!(
            self,
            CheckerKind::PathTraversal | CheckerKind::DataTransmission
        )
    }

    /// Parses a checker name as accepted everywhere a checker is named —
    /// the CLI `--checker` flag, the serve protocol's `"checker"` field,
    /// traffic scripts. Both the short alias and the full
    /// [`Display`](fmt::Display) name are accepted.
    pub fn parse(name: &str) -> Option<CheckerKind> {
        match name {
            "uaf" | "use-after-free" => Some(CheckerKind::UseAfterFree),
            "taint-pt" | "path-traversal" => Some(CheckerKind::PathTraversal),
            "taint-dt" | "data-transmission" => Some(CheckerKind::DataTransmission),
            "null" | "null-deref" | "null-dereference" => Some(CheckerKind::NullDeref),
            _ => None,
        }
    }
}

impl fmt::Display for CheckerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CheckerKind::UseAfterFree => "use-after-free",
            CheckerKind::PathTraversal => "path-traversal",
            CheckerKind::DataTransmission => "data-transmission",
            CheckerKind::NullDeref => "null-dereference",
        })
    }
}

/// What makes a value dangerous: the source half of a property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceSpec {
    /// Receivers of calls to any of the named functions (user functions
    /// or intrinsics) become dangerous — e.g. `fgetc`'s return value.
    CallReceiver(Vec<String>),
    /// The pointer argument of `free` becomes dangerous.
    FreeArgument,
    /// The `null` constant is dangerous.
    NullConstant,
}

/// Where consuming a dangerous value is a defect: the sink half.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkSpec {
    /// Dereferences *and* re-`free`s (the use-after-free property).
    DerefsAndFrees,
    /// Dereferences only (the null-dereference property).
    Derefs,
    /// First arguments of calls to any of the named functions.
    Calls(Vec<String>),
}

/// A complete source–sink property specification. The built-in checkers
/// are instances (see [`CheckerKind::spec`]); users define their own for
/// project-specific APIs:
///
/// ```
/// use pinpoint_core::spec::{SinkSpec, SourceSpec, Spec};
///
/// let spec = Spec {
///     name: "sql-injection".into(),
///     source: SourceSpec::CallReceiver(vec!["read_form".into()]),
///     sink: SinkSpec::Calls(vec!["db_exec".into()]),
///     traverses_transforms: true,
/// };
/// assert_eq!(spec.name, "sql-injection");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// Property name (used in report rendering).
    pub name: String,
    /// Source half.
    pub source: SourceSpec,
    /// Sink half.
    pub sink: SinkSpec,
    /// `true` if the property survives unary/binary operations.
    pub traverses_transforms: bool,
}

impl CheckerKind {
    /// The built-in property specification of this checker.
    pub fn spec(self) -> Spec {
        match self {
            CheckerKind::UseAfterFree => Spec {
                name: self.to_string(),
                source: SourceSpec::FreeArgument,
                sink: SinkSpec::DerefsAndFrees,
                traverses_transforms: false,
            },
            CheckerKind::PathTraversal => Spec {
                name: self.to_string(),
                source: SourceSpec::CallReceiver(vec![
                    intrinsics::FGETC.into(),
                    intrinsics::RECV.into(),
                ]),
                sink: SinkSpec::Calls(vec![intrinsics::FOPEN.into()]),
                traverses_transforms: true,
            },
            CheckerKind::DataTransmission => Spec {
                name: self.to_string(),
                source: SourceSpec::CallReceiver(vec![intrinsics::GETPASS.into()]),
                sink: SinkSpec::Calls(vec![intrinsics::SENDTO.into()]),
                traverses_transforms: true,
            },
            CheckerKind::NullDeref => Spec {
                name: self.to_string(),
                source: SourceSpec::NullConstant,
                sink: SinkSpec::Derefs,
                traverses_transforms: false,
            },
        }
    }
}

/// A bug-specific source vertex: the value at the statement that makes it
/// dangerous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceSite {
    /// The dangerous value (freed pointer, tainted input, null constant).
    pub value: ValueId,
    /// The statement creating the danger.
    pub site: InstId,
}

/// How a value is consumed at a sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SinkRole {
    /// The value is dereferenced (`Load`/`Store` pointer operand).
    Deref,
    /// The value is freed.
    Free,
    /// The value is passed to a property-specific sink intrinsic.
    TaintSink,
}

/// A bug-specific sink use of a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkSite {
    /// The consumed value.
    pub value: ValueId,
    /// The consuming statement.
    pub site: InstId,
    /// How the value is consumed.
    pub role: SinkRole,
}

/// Extracts the source vertices of `spec` in `f`.
pub fn spec_sources(spec: &Spec, f: &Function) -> Vec<SourceSite> {
    let mut out = Vec::new();
    for (site, inst) in f.iter_insts() {
        match (&spec.source, inst) {
            (SourceSpec::FreeArgument, Inst::Call { callee, args, .. })
                if callee == intrinsics::FREE =>
            {
                if let Some(&v) = args.first() {
                    out.push(SourceSite { value: v, site });
                }
            }
            (SourceSpec::CallReceiver(names), Inst::Call { callee, dsts, .. })
                if names.iter().any(|n| n == callee) =>
            {
                if let Some(&v) = dsts.first() {
                    out.push(SourceSite { value: v, site });
                }
            }
            (
                SourceSpec::NullConstant,
                Inst::Const {
                    dst,
                    value: Const::Null,
                },
            ) => {
                out.push(SourceSite { value: *dst, site });
            }
            _ => {}
        }
    }
    out
}

/// Extracts the source vertices of built-in checker `kind` in `f`.
pub fn sources(kind: CheckerKind, f: &Function) -> Vec<SourceSite> {
    spec_sources(&kind.spec(), f)
}

/// `true` for loads/stores inserted by the Fig. 3 connector
/// transformation: they move values between memory and the function
/// interface and are not programmer-written dereferences, so they must
/// not count as sinks (the real deref they route to is a sink in the
/// other function).
fn is_connector_access(f: &Function, inst: &Inst) -> bool {
    match inst {
        Inst::Load { dst, .. } => {
            let n = &f.value(*dst).name;
            n.starts_with("aux_out") || n.starts_with("aux_arg")
        }
        Inst::Store { src, .. } => {
            let n = &f.value(*src).name;
            n.starts_with("aux_in") || n.starts_with("aux_recv")
        }
        _ => false,
    }
}

/// Extracts the sink uses of `spec` in `f`, indexed by consumed value.
pub fn spec_sinks(spec: &Spec, f: &Function) -> Vec<SinkSite> {
    let derefs = matches!(spec.sink, SinkSpec::DerefsAndFrees | SinkSpec::Derefs);
    let mut out = Vec::new();
    for (site, inst) in f.iter_insts() {
        match inst {
            Inst::Load { ptr, .. } | Inst::Store { ptr, .. }
                if derefs && !is_connector_access(f, inst) =>
            {
                out.push(SinkSite {
                    value: *ptr,
                    site,
                    role: SinkRole::Deref,
                });
            }
            Inst::Call { callee, args, .. } => {
                let role = match &spec.sink {
                    SinkSpec::DerefsAndFrees if callee == intrinsics::FREE => Some(SinkRole::Free),
                    SinkSpec::Calls(names) if names.iter().any(|n| n == callee) => {
                        Some(SinkRole::TaintSink)
                    }
                    _ => None,
                };
                if let Some(role) = role {
                    if let Some(&v) = args.first() {
                        out.push(SinkSite {
                            value: v,
                            site,
                            role,
                        });
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Extracts the sink uses of built-in checker `kind` in `f`.
pub fn sinks(kind: CheckerKind, f: &Function) -> Vec<SinkSite> {
    spec_sinks(&kind.spec(), f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_ir::compile;

    #[test]
    fn uaf_sources_and_sinks() {
        let m = compile(
            "fn f(p: int*) {
                free(p);
                let x: int = *p;
                print(x);
                free(p);
                return;
            }",
        )
        .unwrap();
        let f = &m.funcs[0];
        let srcs = sources(CheckerKind::UseAfterFree, f);
        assert_eq!(srcs.len(), 2, "both frees are sources");
        let sks = sinks(CheckerKind::UseAfterFree, f);
        let derefs = sks.iter().filter(|s| s.role == SinkRole::Deref).count();
        let frees = sks.iter().filter(|s| s.role == SinkRole::Free).count();
        assert_eq!(derefs, 1);
        assert_eq!(frees, 2);
    }

    #[test]
    fn taint_sources_and_sinks() {
        let m = compile(
            "fn f() {
                let x: int = fgetc();
                let h: int = fopen(x);
                print(h);
                return;
            }",
        )
        .unwrap();
        let f = &m.funcs[0];
        assert_eq!(sources(CheckerKind::PathTraversal, f).len(), 1);
        assert_eq!(sinks(CheckerKind::PathTraversal, f).len(), 1);
        assert!(sources(CheckerKind::DataTransmission, f).is_empty());
    }

    #[test]
    fn data_transmission_pairs() {
        let m = compile(
            "fn f() {
                let s: int = getpass();
                sendto(s);
                return;
            }",
        )
        .unwrap();
        let f = &m.funcs[0];
        assert_eq!(sources(CheckerKind::DataTransmission, f).len(), 1);
        assert_eq!(sinks(CheckerKind::DataTransmission, f).len(), 1);
    }

    #[test]
    fn null_deref_sources() {
        let m = compile(
            "fn f() -> int {
                let p: int* = null;
                let x: int = *p;
                return x;
            }",
        )
        .unwrap();
        let f = &m.funcs[0];
        assert_eq!(sources(CheckerKind::NullDeref, f).len(), 1);
        assert_eq!(sinks(CheckerKind::NullDeref, f).len(), 1);
    }

    #[test]
    fn transform_traversal_flags() {
        assert!(CheckerKind::PathTraversal.traverses_transforms());
        assert!(!CheckerKind::UseAfterFree.traverses_transforms());
    }
}

#[cfg(test)]
mod custom_spec_tests {
    use super::*;
    use crate::driver::Analysis;
    use crate::query::Query;

    #[test]
    fn custom_null_source_with_deref_sinks() {
        // A custom spec can reuse the built-in source/sink atoms in new
        // combinations: null constants flowing into a project-specific
        // "must-not-be-null" API.
        let spec = Spec {
            name: "null-into-api".into(),
            source: SourceSpec::NullConstant,
            sink: SinkSpec::Calls(vec!["api_requires_nonnull".into()]),
            traverses_transforms: false,
        };
        let a = Analysis::from_source(
            "fn api_requires_nonnull(p: int*) { let x: int = *p; print(x); return; }
             fn main(c: bool) {
                let p: int* = malloc();
                let q: int* = p;
                if (c) { q = null; }
                api_requires_nonnull(q);
                return;
             }",
        )
        .unwrap();
        let reports = a.session().query(&Query::Custom(spec)).into_reports();
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(reports[0].property, "null-into-api");
        assert!(reports[0]
            .witness
            .iter()
            .any(|(n, v)| n.ends_with(":c") && *v));
    }

    #[test]
    fn custom_free_source_taint_sink_combination() {
        // Freed pointers must not be logged (a made-up policy): shows the
        // FreeArgument source composing with call sinks.
        let spec = Spec {
            name: "freed-into-log".into(),
            source: SourceSpec::FreeArgument,
            sink: SinkSpec::Calls(vec!["audit_log".into()]),
            traverses_transforms: false,
        };
        let a = Analysis::from_source(
            "fn audit_log(p: int*) { print(p); return; }
             fn main() {
                let p: int* = malloc();
                free(p);
                audit_log(p);
                return;
             }",
        )
        .unwrap();
        let reports = a.session().query(&Query::Custom(spec)).into_reports();
        assert_eq!(reports.len(), 1, "{reports:?}");
    }
}
