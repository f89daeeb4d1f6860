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
//!
//! A spec names functions by string; [`ResolvedSpec`] resolves those names
//! against a module once per query, so matching a call compares callee
//! ids.

use crate::seg::{ModuleSeg, SiteKind};
use pinpoint_ir::{
    intrinsics, CallGraph, Callee, FuncId, Function, Inst, InstId, Intrinsic, Module, ValueId,
};
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

/// A [`Spec`] whose function names are resolved against one module: the
/// callees of its [`SourceSpec::CallReceiver`] and [`SinkSpec::Calls`]
/// lists. A name the module does not define matches no call.
#[derive(Debug, Clone)]
pub struct ResolvedSpec<'a> {
    /// The specification.
    pub spec: &'a Spec,
    source_calls: Vec<Callee>,
    sink_calls: Vec<Callee>,
}

impl<'a> ResolvedSpec<'a> {
    /// Resolves `spec`'s names against `module`.
    pub fn new(spec: &'a Spec, module: &Module) -> Self {
        let resolve = |names: &[String]| -> Vec<Callee> {
            names
                .iter()
                .filter_map(|n| module.callee_by_name(n))
                .collect()
        };
        ResolvedSpec {
            spec,
            source_calls: match &spec.source {
                SourceSpec::CallReceiver(names) => resolve(names),
                _ => Vec::new(),
            },
            sink_calls: match &spec.sink {
                SinkSpec::Calls(names) => resolve(names),
                _ => Vec::new(),
            },
        }
    }

    /// The source vertices of the spec in every function, read from the
    /// SEG's source index and the callers of its user-function callees:
    /// `(function, site)` ascending, the order a scan of the module
    /// meets them in (the tests keep that scan as
    /// `ResolvedSpec::reference_sources`).
    pub fn sources(&self, segs: &ModuleSeg, cg: &CallGraph) -> Vec<(FuncId, SourceSite)> {
        let callees = match &self.spec.source {
            SourceSpec::FreeArgument => return segs.source_sites(SiteKind::Freed).to_vec(),
            SourceSpec::NullConstant => return segs.source_sites(SiteKind::Null).to_vec(),
            SourceSpec::CallReceiver(_) => &self.source_calls,
        };
        let mut out = Vec::new();
        for callee in callees {
            let Some(f) = callee.as_func() else {
                let intrinsic = callee.as_intrinsic().expect("an intrinsic");
                out.extend_from_slice(segs.source_sites(SiteKind::Received(intrinsic)));
                continue;
            };
            out.extend(segs.callers(cg, f).filter_map(|(caller, site)| {
                let call = segs.seg(caller).call_site(site)?;
                let value = *call.dsts.first()?;
                Some((caller, SourceSite { value, site }))
            }));
        }
        // Each callee's sites ascend; a site has one callee, and a name
        // listed twice resolves twice.
        if callees.len() > 1 {
            out.sort_by_key(|&(f, s)| (f, s.site));
            out.dedup();
        }
        out
    }

    /// The scan [`ResolvedSpec::sources`] replaces, kept as its oracle:
    /// every instruction of every function, in module order.
    #[cfg(test)]
    pub(crate) fn reference_sources(&self, module: &Module) -> Vec<(FuncId, SourceSite)> {
        let mut out = Vec::new();
        for (fid, f) in module.iter_funcs() {
            for (site, inst) in f.iter_insts() {
                let value = match (&self.spec.source, inst) {
                    (SourceSpec::FreeArgument, _) => inst
                        .as_call()
                        .filter(|c| c.callee.is(Intrinsic::Free))
                        .and_then(|c| c.args.first()),
                    (SourceSpec::CallReceiver(_), _) => inst
                        .as_call()
                        .filter(|c| self.source_calls.contains(&c.callee))
                        .and_then(|c| c.dsts.first()),
                    (
                        SourceSpec::NullConstant,
                        Inst::Const {
                            dst,
                            value: pinpoint_ir::Const::Null,
                        },
                    ) => Some(dst),
                    _ => None,
                };
                if let Some(&value) = value {
                    out.push((fid, SourceSite { value, site }));
                }
            }
        }
        out
    }

    /// Extracts the sink uses of the spec in `f`, indexed by consumed
    /// value.
    pub fn sinks(&self, f: &Function) -> Vec<SinkSite> {
        let derefs = matches!(self.spec.sink, SinkSpec::DerefsAndFrees | SinkSpec::Derefs);
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
                Inst::Call { .. } => {
                    let call = inst.as_call().expect("a call");
                    let role = match &self.spec.sink {
                        SinkSpec::DerefsAndFrees if call.callee.is(Intrinsic::Free) => {
                            Some(SinkRole::Free)
                        }
                        SinkSpec::Calls(_) if self.sink_calls.contains(&call.callee) => {
                            Some(SinkRole::TaintSink)
                        }
                        _ => None,
                    };
                    if let (Some(role), Some(&value)) = (role, call.args.first()) {
                        out.push(SinkSite { value, site, role });
                    }
                }
                _ => {}
            }
        }
        out
    }
}

/// `true` for loads/stores inserted by the Fig. 3 connector
/// transformation: they move values between memory and the function
/// interface and are not programmer-written dereferences, so they must
/// not count as sinks (the real deref they route to is a sink in the
/// other function).
fn is_connector_access(f: &Function, inst: &Inst) -> bool {
    match inst {
        Inst::Load { dst, .. } => {
            let n = f.value_name(*dst);
            n.starts_with("aux_out") || n.starts_with("aux_arg")
        }
        Inst::Store { src, .. } => {
            let n = f.value_name(*src);
            n.starts_with("aux_in") || n.starts_with("aux_recv")
        }
        _ => false,
    }
}

/// Extracts the sink uses of built-in checker `kind` in function `f` of
/// `module`.
pub fn sinks(kind: CheckerKind, module: &Module, f: &Function) -> Vec<SinkSite> {
    ResolvedSpec::new(&kind.spec(), module).sinks(f)
}

/// Asserts that [`ResolvedSpec::sources`] gives what the scan gives, in
/// the same order, on the artefact `a` for the built-in specs and
/// for custom receiver specs naming a user function (one some call
/// receives from), an intrinsic, and both with a name listed twice.
/// Returns whether some function had sources in several blocks, the case
/// in which only `(function, site)` order passes.
#[cfg(test)]
pub(crate) fn assert_source_index_matches_scan(a: &crate::Analysis, what: &str) -> bool {
    let module = &a.module;
    let user = module
        .iter_funcs()
        .flat_map(|(_, f)| f.iter_insts())
        .find_map(|(_, inst)| {
            let call = inst.as_call().filter(|c| !c.dsts.is_empty())?;
            Some(module.func(call.callee.as_func()?).name.clone())
        });
    let receiver = |name: &str, names: Vec<String>| Spec {
        name: name.into(),
        source: SourceSpec::CallReceiver(names),
        sink: SinkSpec::Derefs,
        traverses_transforms: false,
    };
    let mut specs: Vec<Spec> = CheckerKind::ALL.map(CheckerKind::spec).into();
    specs.push(receiver("user", user.iter().cloned().collect()));
    specs.push(receiver("intrinsic", vec![intrinsics::NONDET_INT.into()]));
    let mixed = [
        user.as_deref(),
        Some(intrinsics::NONDET_INT),
        Some(intrinsics::FGETC),
        user.as_deref(),
    ];
    specs.push(receiver(
        "mixed",
        mixed.into_iter().flatten().map(String::from).collect(),
    ));
    let mut several_blocks = false;
    for spec in &specs {
        let resolved = ResolvedSpec::new(spec, module);
        let scan = resolved.reference_sources(module);
        let sources = resolved.sources(&a.segs, &a.callgraph);
        assert_eq!(sources, scan, "{what}: {}", spec.name);
        several_blocks |= scan
            .windows(2)
            .any(|w| w[0].0 == w[1].0 && w[0].1.site.block != w[1].1.site.block);
    }
    several_blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Analysis;
    use pinpoint_ir::compile;

    /// The sources of built-in checker `kind` in `module`, by the scan.
    fn sources(kind: CheckerKind, module: &Module) -> Vec<(FuncId, SourceSite)> {
        ResolvedSpec::new(&kind.spec(), module).reference_sources(module)
    }

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
        let srcs = sources(CheckerKind::UseAfterFree, &m);
        assert_eq!(srcs.len(), 2, "both frees are sources");
        let sks = sinks(CheckerKind::UseAfterFree, &m, f);
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
        assert_eq!(sources(CheckerKind::PathTraversal, &m).len(), 1);
        assert_eq!(sinks(CheckerKind::PathTraversal, &m, f).len(), 1);
        assert!(sources(CheckerKind::DataTransmission, &m).is_empty());
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
        assert_eq!(sources(CheckerKind::DataTransmission, &m).len(), 1);
        assert_eq!(sinks(CheckerKind::DataTransmission, &m, f).len(), 1);
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
        assert_eq!(sources(CheckerKind::NullDeref, &m).len(), 1);
        assert_eq!(sinks(CheckerKind::NullDeref, &m, f).len(), 1);
    }

    #[test]
    fn source_index_matches_the_scan_on_corpus() {
        let dir = format!("{}/../../tests/corpus", env!("CARGO_MANIFEST_DIR"));
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "pp"))
            .collect();
        paths.sort();
        assert_eq!(paths.len(), 22, "corpus moved");
        for path in paths {
            let a = Analysis::from_source(&std::fs::read_to_string(&path).unwrap()).unwrap();
            assert_source_index_matches_scan(&a, &path.display().to_string());
        }
    }

    #[test]
    fn source_index_interleaves_callees_in_site_order() {
        // The mixed spec's sources alternate between `src` and
        // `nondet_int` across three blocks of `f`.
        let a = Analysis::from_source(
            "fn src() -> int { let v: int = nondet_int(); return v; }
             fn f(c: bool) {
                let a: int = src();
                if (c) {
                    let b: int = nondet_int();
                    print(b);
                    let p: int* = null;
                    free(p);
                }
                let d: int = src();
                let e: int = nondet_int();
                print(a + d + e);
                return;
             }",
        )
        .unwrap();
        assert!(assert_source_index_matches_scan(&a, "interleaved"));
    }

    #[test]
    fn source_index_matches_the_scan_on_fuzzgen_seeds() {
        use pinpoint_workload::fuzzgen::{generate, FuzzGenConfig};
        let mut several_blocks = false;
        for seed in 13..=24 {
            // `gen_project --fuzz --kloc 1`.
            let src = generate(&FuzzGenConfig {
                seed,
                functions: 1000 / 18,
                max_stmts: 10,
                globals: 4,
                recursion: true,
            });
            let a = Analysis::from_source(&src).unwrap();
            let what = format!("seed {seed}");
            several_blocks |= assert_source_index_matches_scan(&a, &what);
        }
        assert!(several_blocks, "no function has sources in several blocks");
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
