//! The compile pipeline: source text → front-end → conformance checks →
//! defect application → executable.

use acc_ast::{Expr, Program};
use acc_device::{Defect, ExecProfile};
use acc_frontend::{sema, ResolvedProgram, Severity};
use acc_spec::{ClauseKind, DeviceType, DirectiveKind, Language, RuntimeRoutine, SpecVersion};
use std::fmt;
use std::sync::Arc;

/// Why compilation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The front-end rejected the source.
    ParseError,
    /// Specification conformance errors (illegal clause, undeclared
    /// variable, 2.0 syntax under 1.0, …).
    SemanticError,
    /// The vendor's implementation rejects a feature it has not implemented
    /// — the paper's "assertion violations or other internal compilation
    /// errors … if the user uses an OpenACC feature that is not yet
    /// supported" (§V).
    InternalError,
}

/// A compile-time failure with its messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileFailure {
    /// Failure class.
    pub kind: FailureKind,
    /// Human-readable messages.
    pub messages: Vec<String>,
}

impl fmt::Display for CompileFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            FailureKind::ParseError => "parse error",
            FailureKind::SemanticError => "semantic error",
            FailureKind::InternalError => "internal compiler error",
        };
        write!(f, "{kind}: {}", self.messages.join("; "))
    }
}

impl std::error::Error for CompileFailure {}

/// A compiled test program: the parsed AST plus the behavioural profile the
/// machine will execute it under.
///
/// The AST and its resolved frame layouts are `Arc`-shared: when the
/// compilation cache serves the same source to several vendor versions, all
/// resulting executables point at one parse.
#[derive(Debug, Clone)]
pub struct Executable {
    /// The program.
    pub program: Arc<Program>,
    /// Frame slot layouts for every function (name → slot resolution done
    /// once at compile time; the interpreter indexes `Vec`-backed frames).
    pub resolved: Arc<ResolvedProgram>,
    /// Vendor behaviour (mapping, policies, injected defects).
    pub profile: ExecProfile,
    /// The implementation-defined concrete device type.
    pub concrete_device: DeviceType,
    /// The lowered bytecode image the VM engine executes (`Arc`-shared
    /// through the executable cache, so a cache hit skips lowering).
    pub code: Arc<crate::bytecode::BytecodeProgram>,
    /// Memoized run results, keyed by `(knobs, env)` — execution is a pure
    /// function of the executable plus those inputs, so repeated identical
    /// runs (the repetition loops of a campaign) can replay a cached
    /// [`RunResult`](crate::exec::RunResult). `Arc`-shared so clones (and
    /// executable-cache hits) share one memo. Only consulted when
    /// `RunKnobs::memo` is set; see [`Executable::run_with_knobs`].
    pub run_memo: Arc<std::sync::Mutex<std::collections::HashMap<String, crate::exec::RunResult>>>,
}

impl Executable {
    /// A stable textual disassembly of the lowered program (the
    /// `accvv disasm` output).
    pub fn disassemble(&self) -> String {
        self.code.disassemble()
    }

    /// Re-run bytecode lowering from the resolved AST (bench probe for
    /// isolating lowering cost; normal compiles lower once in
    /// [`finish_compile`]).
    pub fn lower_again(&self) -> crate::bytecode::BytecodeProgram {
        crate::bytecode::lower(&self.program, &self.resolved)
    }
}

/// The profile-independent front half of the pipeline: parse, specification
/// conformance, name resolution. Its result depends only on `(source,
/// language, spec version)` — this is the unit the compilation cache shares
/// across vendors and versions.
pub fn frontend_compile(
    source: &str,
    language: Language,
) -> Result<(Arc<Program>, Arc<ResolvedProgram>), CompileFailure> {
    // 1. Front-end.
    let program = acc_frontend::parse(source, language).map_err(|e| CompileFailure {
        kind: FailureKind::ParseError,
        messages: vec![e.to_string()],
    })?;
    // 2. Specification conformance.
    let diags = sema::analyze(&program, SpecVersion::V1_0);
    let errors: Vec<String> = diags
        .iter()
        .filter(|d| d.severity >= Severity::Error)
        .map(|d| d.to_string())
        .collect();
    if !errors.is_empty() {
        return Err(CompileFailure {
            kind: FailureKind::SemanticError,
            messages: errors,
        });
    }
    // 3. Name resolution (frame slot assignment).
    let resolved = acc_frontend::resolve(&program);
    Ok((Arc::new(program), Arc::new(resolved)))
}

/// The profile-specific back half: apply the vendor release's compile-time
/// defects to an already-parsed program and produce the executable.
pub fn finish_compile(
    program: Arc<Program>,
    resolved: Arc<ResolvedProgram>,
    profile: ExecProfile,
    concrete_device: DeviceType,
) -> Result<Executable, CompileFailure> {
    let ice = compile_time_defects(&program, &profile);
    if !ice.is_empty() {
        return Err(CompileFailure {
            kind: FailureKind::InternalError,
            messages: ice,
        });
    }
    // Timing-class span: lowering only happens on an executable-cache miss,
    // and which worker takes the miss depends on schedule.
    acc_obs::begin_timing("lower", "bytecode", vec![]);
    let code = Arc::new(crate::bytecode::lower(&program, &resolved));
    acc_obs::end(vec![acc_obs::i("instrs", code.code.len() as i64)]);
    Ok(Executable {
        program,
        resolved,
        profile,
        concrete_device,
        code,
        run_memo: Arc::new(std::sync::Mutex::new(std::collections::HashMap::new())),
    })
}

/// Compile `source` under `profile` (already carrying the version's
/// defects). This is the shared back half of
/// [`crate::vendor::VendorCompiler::compile`]; it is public so tests and
/// tools can compile against hand-built profiles.
pub fn compile_with_profile(
    source: &str,
    language: Language,
    profile: ExecProfile,
    concrete_device: DeviceType,
) -> Result<Executable, CompileFailure> {
    let (program, resolved) = frontend_compile(source, language)?;
    finish_compile(program, resolved, profile, concrete_device)
}

/// Check the program against the profile's compile-time defects; returns the
/// internal-error messages triggered.
fn compile_time_defects(program: &Program, profile: &ExecProfile) -> Vec<String> {
    let mut msgs = Vec::new();
    for dir in program.directives() {
        // Whole-directive rejection.
        if profile.compile_error(dir.kind, None) {
            msgs.push(format!(
                "internal error: `{}` directive is not supported by this release",
                dir.kind.name()
            ));
        }
        for c in &dir.clauses {
            if profile.compile_error(dir.kind, Some(c.kind())) {
                msgs.push(format!(
                    "internal error: `{}` clause on `{}` is not supported by this release",
                    c.kind().name(),
                    dir.kind.name()
                ));
            }
        }
        // CAPS §V-B: variable expressions in sizing clauses rejected.
        if profile.has(&Defect::RejectVariableSizingExpr) {
            for c in &dir.clauses {
                let (kind, expr): (ClauseKind, &Expr) = match c {
                    acc_ast::AccClause::NumGangs(e) => (ClauseKind::NumGangs, e),
                    acc_ast::AccClause::NumWorkers(e) => (ClauseKind::NumWorkers, e),
                    acc_ast::AccClause::VectorLength(e) => (ClauseKind::VectorLength, e),
                    _ => continue,
                };
                if !expr.is_const() {
                    msgs.push(format!(
                        "internal error: `{}` requires a constant expression",
                        kind.name()
                    ));
                }
            }
        }
    }
    // Missing runtime routines (link failure).
    let mut called: Vec<RuntimeRoutine> = Vec::new();
    fn scan(e: &Expr, called: &mut Vec<RuntimeRoutine>) {
        e.visit(&mut |x| {
            if let Expr::Call { name, .. } = x {
                if let Some(r) = RuntimeRoutine::from_symbol(name) {
                    called.push(r);
                }
            }
        })
    }
    for f in &program.functions {
        for s in &f.body {
            s.visit(&mut |st| match st {
                acc_ast::Stmt::Call { name, args } => {
                    if let Some(r) = RuntimeRoutine::from_symbol(name) {
                        called.push(r);
                    }
                    for a in args {
                        scan(a, &mut called);
                    }
                }
                acc_ast::Stmt::Assign { value, .. } => scan(value, &mut called),
                acc_ast::Stmt::DeclScalar { init: Some(e), .. } => scan(e, &mut called),
                acc_ast::Stmt::Return(e) => scan(e, &mut called),
                acc_ast::Stmt::If { cond, .. } => scan(cond, &mut called),
                _ => {}
            });
        }
    }
    for r in called {
        if profile.has(&Defect::RejectRoutine(r)) {
            msgs.push(format!(
                "link error: undefined reference to `{}`",
                r.symbol()
            ));
        }
    }
    msgs.sort();
    msgs.dedup();
    msgs
}

/// Convenience for checking whether a program *uses* a feature pair —
/// shared by the bug catalog's applicability logic.
pub fn program_uses(program: &Program, dir: DirectiveKind, clause: Option<ClauseKind>) -> bool {
    program.directives().iter().any(|d| {
        d.kind == dir
            && match clause {
                None => true,
                Some(c) => d.clauses.iter().any(|cl| cl.kind() == c),
            }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_device::ExecProfile;

    fn reference() -> (ExecProfile, DeviceType) {
        (ExecProfile::reference(), DeviceType::Nvidia)
    }

    #[test]
    fn clean_program_compiles() {
        let (p, d) = reference();
        let src = "int main(void) {\n    int a[4];\n    #pragma acc parallel copy(a[0:4])\n    {\n        #pragma acc loop\n        for (i = 0; i < 4; i++)\n        {\n            a[i] = i;\n        }\n    }\n    return 1;\n}\n";
        assert!(compile_with_profile(src, Language::C, p, d).is_ok());
    }

    #[test]
    fn parse_error_classified() {
        let (p, d) = reference();
        let err =
            compile_with_profile("int main(void) {\n    @@@\n}\n", Language::C, p, d).unwrap_err();
        assert_eq!(err.kind, FailureKind::ParseError);
    }

    #[test]
    fn semantic_error_classified() {
        let (p, d) = reference();
        let src = "int main(void) {\n    #pragma acc kernels num_gangs(4)\n    {\n    }\n    return 1;\n}\n";
        let err = compile_with_profile(src, Language::C, p, d).unwrap_err();
        assert_eq!(err.kind, FailureKind::SemanticError);
    }

    #[test]
    fn compile_error_defect_triggers_only_when_feature_used() {
        let profile = ExecProfile::reference()
            .with_defect(Defect::CompileError(DirectiveKind::Declare, None));
        let uses = "int main(void) {\n    int a[4];\n    #pragma acc declare create(a[0:4])\n    return 1;\n}\n";
        let err = compile_with_profile(uses, Language::C, profile.clone(), DeviceType::Nvidia)
            .unwrap_err();
        assert_eq!(err.kind, FailureKind::InternalError);
        let clean = "int main(void) {\n    return 1;\n}\n";
        assert!(compile_with_profile(clean, Language::C, profile, DeviceType::Nvidia).is_ok());
    }

    #[test]
    fn variable_sizing_expr_rejected_under_caps_bug() {
        let profile = ExecProfile::reference().with_defect(Defect::RejectVariableSizingExpr);
        let src = "int main(void) {\n    int gangs = 8;\n    #pragma acc parallel num_gangs(gangs)\n    {\n    }\n    return 1;\n}\n";
        let err =
            compile_with_profile(src, Language::C, profile.clone(), DeviceType::Cuda).unwrap_err();
        assert_eq!(err.kind, FailureKind::InternalError);
        // Constant form still compiles (the paper's Fig. 9 "working" case).
        let const_src = "int main(void) {\n    #pragma acc parallel num_gangs(8)\n    {\n    }\n    return 1;\n}\n";
        assert!(compile_with_profile(const_src, Language::C, profile, DeviceType::Cuda).is_ok());
    }

    #[test]
    fn missing_routine_is_link_error() {
        let profile =
            ExecProfile::reference().with_defect(Defect::RejectRoutine(RuntimeRoutine::AsyncTest));
        let src =
            "int main(void) {\n    int t = 0;\n    t = acc_async_test(1);\n    return t;\n}\n";
        let err = compile_with_profile(src, Language::C, profile, DeviceType::Nvidia).unwrap_err();
        assert_eq!(err.kind, FailureKind::InternalError);
        assert!(err.messages[0].contains("acc_async_test"));
    }

    #[test]
    fn program_uses_helper() {
        let src = "int main(void) {\n    int a[4];\n    #pragma acc data copyin(a[0:4])\n    {\n    }\n    return 1;\n}\n";
        let p = acc_frontend::parse(src, Language::C).unwrap();
        assert!(program_uses(&p, DirectiveKind::Data, None));
        assert!(program_uses(
            &p,
            DirectiveKind::Data,
            Some(ClauseKind::Copyin)
        ));
        assert!(!program_uses(
            &p,
            DirectiveKind::Data,
            Some(ClauseKind::Copyout)
        ));
        assert!(!program_uses(&p, DirectiveKind::Parallel, None));
    }
}
