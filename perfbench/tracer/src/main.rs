//! Traced in-process replay of perfbench ops.
//!
//! The end-to-end runs drive the release `accvv` binary. This program
//! replays the same seeded ops in one process and times every call into
//! the repository's layers with its own span timers. It never turns on the
//! program's telemetry: `acc_obs::active()` switches the run memo off, so a
//! program-traced run would take a different path than the one measured.
//!
//! Self time is a span's duration minus the time its child spans cover.
//!
//! `run_case_with`, `Campaign::run_one` and `Executor::run_suite_stats`
//! offer no hook around their compile and exec calls. So each op first
//! makes those calls itself, through the same public functions, on the same
//! cache and with the same run knobs as the untraced path
//! (`CompileCache::executable`/`frontend`, `finish_compile`,
//! `Executable::run_with_knobs`), timing each. The real parent function then
//! runs on the warm cache and run memo, so its span holds only its own work
//! and the lookups. The replay checks both directions. After every parent
//! call: the parent missed no cache entry, added no run-memo entry, and
//! made exactly as many executable lookups as the replayed children did.
//! After every op: the replay's cache holds the same entries, and each of
//! its executables the same run-memo keys, as the cache of the same op run
//! untraced. So the children measured are exactly the ones the program
//! makes, no fewer and no more.
//!
//! Usage: `perfbench-trace <campaign|run|serve> <ops-file> <work-dir>
//! <budget-seconds> <query-every>`. Prints one JSON object on stdout.

mod sha256;
mod timing;

use acc_compiler::driver::{finish_compile, CompileFailure, FailureKind};
use acc_compiler::exec::{ExecMode, RunKnobs, RunOutcome};
use acc_compiler::{CompileCache, Executable, VendorCompiler, VendorId};
use acc_frontend::{sema, Severity};
use acc_harness::history::{history, HistoryRequest};
use acc_harness::{QueryFilter, ResultStore};
use acc_obs::{GroupBy, LatencyCollector};
use acc_server::{run_submission, RunOptions, SubmissionSpec};
use acc_spec::version::CompilerVersion;
use acc_spec::{Language, SpecVersion};
use acc_testsuite::full_suite;
use acc_validation::report::{self, ReportFormat};
use acc_validation::{
    atomic_write_via, run_case_with, Campaign, CancelToken, CasePolicy, Executor, ExecutorPolicy,
    FileJournal, SuiteConfig, SuiteRun, TestCase,
};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use timing::{count, span, untimed, TimingFs};

/// The knobs every untraced campaign path hands `run_with_knobs`: default
/// step budget, first attempt, bytecode VM, run memo on.
fn knobs(offset: u64) -> RunKnobs {
    RunKnobs {
        step_limit: None,
        run_index: offset,
        exec_mode: ExecMode::Vm,
        memo: true,
    }
}

/// The case policy `Campaign::run_one` and the executor build.
fn case_policy() -> CasePolicy {
    CasePolicy {
        exec_mode: ExecMode::Vm,
        memo: true,
        ..CasePolicy::default()
    }
}

/// One compile cache plus what the replay needs to check its parents.
struct Replay {
    cache: Arc<CompileCache>,
    /// Executables the children touched, by cache key (`fingerprint\0source`),
    /// for the run-memo checks.
    touched: HashMap<String, Arc<Executable>>,
    /// Executable lookups the children made since the last parent call.
    lookups: u64,
    /// The same count for the last parent call.
    last_lookups: u64,
    /// Cache lookups made by parent calls (to subtract from the totals).
    parent_frontend_hits: u64,
    parent_exec_hits: u64,
    mirror_ok: bool,
}

impl Replay {
    fn new(cache: Arc<CompileCache>) -> Self {
        Replay {
            cache,
            touched: HashMap::new(),
            lookups: 0,
            last_lookups: 0,
            parent_frontend_hits: 0,
            parent_exec_hits: 0,
            mirror_ok: true,
        }
    }

    fn memo_len(&self) -> usize {
        self.touched
            .values()
            .map(|e| e.run_memo.lock().expect("run memo poisoned").len())
            .sum()
    }

    /// Run a parent function after its children were replayed; `name` is
    /// the span its self time lands in.
    fn parent<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let before = self.cache.stats();
        let memo_before = untimed(|| self.memo_len());
        let out = span(name, f);
        let after = self.cache.stats();
        let memo_after = untimed(|| self.memo_len());
        if after.frontend_misses != before.frontend_misses
            || after.frontend_hits != before.frontend_hits
            || after.exec_misses != before.exec_misses
            || after.exec_hits - before.exec_hits != self.lookups
            || memo_after != memo_before
        {
            self.mirror_ok = false;
        }
        self.last_lookups = self.lookups;
        self.lookups = 0;
        self.parent_frontend_hits += after.frontend_hits - before.frontend_hits;
        self.parent_exec_hits += after.exec_hits - before.exec_hits;
        out
    }
}

/// What a replay left in its cache: entry counts and, for every executable
/// the op touched, its run-memo keys.
struct Shape {
    exec_entries: usize,
    frontend_entries: usize,
    memo: BTreeMap<String, Vec<String>>,
}

impl Shape {
    fn of(r: &Replay) -> Self {
        Shape {
            exec_entries: r.cache.exec_entries(),
            frontend_entries: r.cache.frontend_entries(),
            memo: r
                .touched
                .iter()
                .map(|(key, exe)| (key.clone(), memo_keys(exe)))
                .collect(),
        }
    }

    /// Whether the cache of the same op run untraced holds the same entries
    /// and run-memo keys: the replay made no compile or exec call that the
    /// program did not make.
    fn matches(&self, plain: &CompileCache) -> bool {
        plain.exec_entries() == self.exec_entries
            && plain.frontend_entries() == self.frontend_entries
            && self.memo.iter().all(|(key, keys)| {
                let (fingerprint, source) = key.split_once('\0').expect("cache key");
                // Only a hit can be compared; a miss fails the check.
                let missing = || {
                    Err(CompileFailure {
                        kind: FailureKind::ParseError,
                        messages: Vec::new(),
                    })
                };
                plain
                    .executable(fingerprint, source, missing)
                    .is_ok_and(|exe| memo_keys(&exe) == *keys)
            })
    }
}

fn memo_keys(exe: &Executable) -> Vec<String> {
    let mut keys: Vec<String> = exe
        .run_memo
        .lock()
        .expect("run memo poisoned")
        .keys()
        .cloned()
        .collect();
    keys.sort();
    keys
}

/// Instruction counts by source text: lowering depends only on the parsed
/// program, and `disassemble` is the public way to read the count, so each
/// distinct source is disassembled once, outside the timed spans.
#[derive(Default)]
struct InstrCounts(HashMap<String, u64>);

impl InstrCounts {
    fn get(&mut self, source: &str, exe: &Executable) -> u64 {
        if let Some(&n) = self.0.get(source) {
            return n;
        }
        let text = exe.disassemble();
        let n = text
            .lines()
            .nth(1)
            .and_then(|l| l.trim_start_matches(";; ").split(' ').next())
            .and_then(|n| n.parse().ok())
            .expect("disassembly header names the instruction count");
        self.0.insert(source.to_string(), n);
        n
    }
}

/// The profile-independent front half, exactly as `frontend_compile`
/// composes it, with each pass under its own span.
fn frontend(
    source: &str,
    lang: Language,
) -> Result<(Arc<acc_ast::Program>, Arc<acc_frontend::ResolvedProgram>), CompileFailure> {
    count("frontend.calls", 1);
    let program = span("frontend.parse", || acc_frontend::parse(source, lang)).map_err(|e| {
        CompileFailure {
            kind: FailureKind::ParseError,
            messages: vec![e.to_string()],
        }
    })?;
    let diags = span("frontend.sema", || {
        sema::analyze(&program, SpecVersion::V1_0)
    });
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
    let resolved = span("frontend.resolve", || acc_frontend::resolve(&program));
    Ok((Arc::new(program), Arc::new(resolved)))
}

/// `VendorCompiler::compile_shared` with a cache, call for call.
fn compile(
    r: &mut Replay,
    instrs: &mut InstrCounts,
    compiler: &VendorCompiler,
    source: &str,
    lang: Language,
) -> Result<Arc<Executable>, CompileFailure> {
    let cache = Arc::clone(&r.cache);
    let mut lowered = false;
    r.lookups += 1;
    let (exe, fingerprint) = span("compiler.cache", || {
        let fingerprint = compiler.fingerprint(lang);
        let exe = cache.executable(&fingerprint, source, || {
            let (program, resolved) =
                cache.frontend(source, lang, SpecVersion::V1_0, || frontend(source, lang))?;
            lowered = true;
            count("compiler.lower_calls", 1);
            span("compiler.lower", || {
                finish_compile(
                    program,
                    resolved,
                    compiler.profile(lang),
                    compiler.vendor.concrete_device(),
                )
            })
        });
        (exe, fingerprint)
    });
    if let Ok(exe) = &exe {
        untimed(|| {
            if lowered {
                count("compiler.bytecode_instrs", instrs.get(source, exe));
            }
            r.touched
                .entry(format!("{fingerprint}\0{source}"))
                .or_insert_with(|| Arc::clone(exe));
        });
    }
    exe
}

fn exec(exe: &Executable, case: &TestCase, offset: u64) -> RunOutcome {
    count("compiler.exec_calls", 1);
    let result = span("compiler.exec", || {
        exe.run_with_knobs(&case.env, knobs(offset))
    });
    let m = &result.metrics;
    count("device.kernels_launched", m.kernels_launched);
    count("device.bytes_moved", m.bytes_to_device + m.bytes_to_host);
    count("device.statements_executed", m.statements_executed);
    result.outcome
}

/// The compile and exec calls `run_case_with` makes for one job, in its
/// order and under its conditions.
fn case_children(
    r: &mut Replay,
    instrs: &mut InstrCounts,
    case: &TestCase,
    compiler: &VendorCompiler,
    lang: Language,
) {
    if !case.supports(lang) {
        return;
    }
    let source = span("testsuite.render", || case.source_for(lang));
    let Ok(exe) = compile(r, instrs, compiler, &source, lang) else {
        return;
    };
    if !matches!(exec(&exe, case, 0), RunOutcome::Completed(v) if v != 0) {
        return;
    }
    let Some(cross) = span("testsuite.render", || case.cross_source_for(lang)) else {
        return;
    };
    let Ok(cross_exe) = compile(r, instrs, compiler, &cross, lang) else {
        return;
    };
    let m = case.repetitions.max(1);
    if cross_exe.profile.has_transient_faults() {
        for k in 0..m {
            exec(&cross_exe, case, 1 + k as u64);
        }
    } else {
        exec(&cross_exe, case, 1);
    }
}

fn all_children(
    r: &mut Replay,
    instrs: &mut InstrCounts,
    campaign: &Campaign,
    cases: &[TestCase],
    compiler: &VendorCompiler,
) {
    let compiler = compiler.clone().with_cache(Arc::clone(&r.cache));
    for case in cases {
        for &lang in &campaign.config.languages {
            case_children(r, instrs, case, &compiler, lang);
        }
    }
}

/// `run_case_with` over every job on a warm cache: the case layer's own
/// work, measured outside the op (the executor's span holds it too, and
/// `core.executor` self is reported net of it).
fn case_glue(r: &mut Replay, campaign: &Campaign, cases: &[TestCase], compiler: &VendorCompiler) {
    let compiler = compiler.clone().with_cache(Arc::clone(&r.cache));
    let policy = case_policy();
    // The same jobs as the executor call before it, so the same lookups.
    r.lookups = r.last_lookups;
    r.parent("core.case", || {
        for case in cases {
            for &lang in &campaign.config.languages {
                std::hint::black_box(run_case_with(case, &compiler, lang, &policy));
            }
        }
    });
}

fn parse_vendor(s: &str) -> VendorId {
    match s {
        "CAPS" => VendorId::Caps,
        "PGI" => VendorId::Pgi,
        "Cray" => VendorId::Cray,
        "Reference" => VendorId::Reference,
        other => panic!("unknown vendor `{other}` in the ops file"),
    }
}

fn parse_lang(s: &str) -> Option<Language> {
    match s {
        "c" => Some(Language::C),
        "fortran" => Some(Language::Fortran),
        "both" => None,
        other => panic!("unknown language `{other}` in the ops file"),
    }
}

fn taxonomy(run: &SuiteRun, campaign: &Campaign) -> String {
    campaign
        .config
        .languages
        .iter()
        .map(|&lang| format!("taxonomy [{lang}]: {}\n", run.failure_breakdown(lang)))
        .collect()
}

/// Totals over the replay, printed as JSON at the end.
#[derive(Default)]
struct Totals {
    op_ms: Vec<f64>,
    /// Wall time of the same op run untraced in this process.
    plain_ms: Vec<f64>,
    digests: Vec<String>,
    frontend_hits: u64,
    frontend_misses: u64,
    exec_hits: u64,
    exec_misses: u64,
    cache_entries: u64,
    mirror_ok: bool,
    /// Every traced output equalled the untraced run's.
    same_output: bool,
    /// The last traced op's cache, to compare with the untraced run's.
    shape: Option<Shape>,
}

impl Totals {
    /// Fold a replay's cache counters in, net of its parents' lookups.
    fn add_cache(&mut self, r: &Replay) {
        let s = r.cache.stats();
        self.frontend_hits += s.frontend_hits - r.parent_frontend_hits;
        self.frontend_misses += s.frontend_misses;
        self.exec_hits += s.exec_hits - r.parent_exec_hits;
        self.exec_misses += s.exec_misses;
        self.mirror_ok &= r.mirror_ok;
    }
}

/// The first lines of `cmd_campaign`'s table for `vendor`.
fn table_header(vendor: VendorId) -> String {
    format!(
        "=== {} ===\n{:>10} {:>8} {:>10}\n",
        vendor.name(),
        "version",
        "C %",
        "Fortran %"
    )
}

/// One release's row of `cmd_campaign`'s table.
fn table_row(version: CompilerVersion, run: &SuiteRun) -> String {
    format!(
        "{:>10} {:>8.1} {:>10.1}\n",
        version.to_string(),
        run.pass_rate(Language::C),
        run.pass_rate(Language::Fortran)
    )
}

/// One `accvv campaign --vendor V` on one CPU: a fresh cache, every release
/// through `Campaign::run_one`, the pass-rate table as stdout.
fn campaign_op(vendor: VendorId, instrs: &mut InstrCounts, t: &mut Totals) -> String {
    let suite = span("testsuite.generate", full_suite);
    let cache = CompileCache::shared();
    let campaign = Campaign::new(suite)
        .with_config(SuiteConfig::new().with_exec_mode(ExecMode::Vm))
        .with_cache(Arc::clone(&cache));
    let cases = campaign.materialized_cases();
    let mut r = Replay::new(cache);
    let mut out = table_header(vendor);
    for version in vendor.versions() {
        let compiler = VendorCompiler::new(vendor, version);
        all_children(&mut r, instrs, &campaign, &cases, &compiler);
        let run = r.parent("core.case", || campaign.run_one(&compiler));
        out.push_str(&table_row(version, &run));
    }
    out.push('\n');
    untimed(|| {
        t.cache_entries += (r.cache.exec_entries() + r.cache.frontend_entries()) as u64;
        t.add_cache(&r);
        t.shape = Some(Shape::of(&r));
    });
    drop((campaign, cases));
    drop_cache(r);
    out
}

/// Free a one-shot op's compile cache, as the process does when its
/// `cmd_*` function returns: every lowered executable and parsed program.
fn drop_cache(r: Replay) {
    span("compiler.cache_drop", move || drop(r));
}

/// The untraced reference for [`campaign_op`]: `cmd_campaign` on one CPU.
fn plain_campaign(vendor: VendorId, cache: &Arc<CompileCache>) -> String {
    let campaign = Campaign::new(full_suite())
        .with_config(SuiteConfig::new().with_exec_mode(ExecMode::Vm))
        .with_cache(Arc::clone(cache));
    let mut out = table_header(vendor);
    for version in vendor.versions() {
        let run = campaign.run_one(&VendorCompiler::new(vendor, version));
        out.push_str(&table_row(version, &run));
    }
    out.push('\n');
    out
}

/// The suite configuration `cmd_run` builds for `--lang`.
fn release_config(lang: Option<Language>) -> SuiteConfig {
    let mut config = SuiteConfig::new();
    if let Some(l) = lang {
        config = config.language(l);
    }
    config.with_exec_mode(ExecMode::Vm)
}

/// The executor policy `cmd_run --jobs 1` builds.
fn release_policy() -> ExecutorPolicy {
    ExecutorPolicy::new()
        .with_jobs(1)
        .with_retries(0)
        .with_backoff_ms(0)
        .with_exec_mode(ExecMode::Vm)
        .with_cancel(CancelToken::arc())
}

/// The untraced reference for [`release_op`]: `cmd_run`'s call sequence.
/// Writes `plain.j1` and `plain.txt` in `dir`; returns the taxonomy lines.
fn plain_release(
    compiler: &VendorCompiler,
    lang: Option<Language>,
    dir: &Path,
    cache: &Arc<CompileCache>,
) -> String {
    let campaign = Campaign::new(full_suite())
        .with_config(release_config(lang))
        .with_cache(Arc::clone(cache));
    let journal = FileJournal::create(dir.join("plain.j1")).expect("create journal");
    let policy = release_policy().with_journal(Arc::new(journal));
    let (run, _) = Executor::new(policy).run_suite_stats(&campaign, compiler);
    report::write_file(&run, ReportFormat::Text, dir.join("plain.txt")).expect("write report");
    taxonomy(&run, &campaign)
}

/// Time `f` as bookkeeping; returns its result and wall time in ms.
fn timed_plain<T>(f: impl FnOnce() -> T) -> (T, f64) {
    untimed(|| {
        let start = Instant::now();
        let out = f();
        (out, start.elapsed().as_secs_f64() * 1e3)
    })
}

/// One `accvv run --vendor V --version X [--lang L] --jobs 1 --journal J
/// --out O`: a fresh cache, the executor with a fresh journal, the report
/// written atomically, the taxonomy lines as stdout. Returns report and
/// stdout.
fn release_op(
    compiler: VendorCompiler,
    lang: Option<Language>,
    dir: &Path,
    instrs: &mut InstrCounts,
    t: &mut Totals,
) -> (String, String) {
    let report_fs = TimingFs::new(Some("core.report_write"), "core.report_fsyncs");
    let journal_fs = Arc::new(TimingFs::new(
        Some("core.journal_sync"),
        "core.journal_fsyncs",
    ));
    let journal = FileJournal::create_via(journal_fs, dir.join("run.j1")).expect("create journal");
    let suite = span("testsuite.generate", full_suite);
    let cache = CompileCache::shared();
    let campaign = Campaign::new(suite)
        .with_config(release_config(lang))
        .with_cache(Arc::clone(&cache));
    let policy = release_policy().with_journal(Arc::new(journal));
    let cases = campaign.materialized_cases();
    let mut r = Replay::new(cache);
    all_children(&mut r, instrs, &campaign, &cases, &compiler);
    let (run, _) = r.parent("core.executor", || {
        Executor::new(policy).run_suite_stats(&campaign, &compiler)
    });
    let text = span("core.report_render", || {
        report::render(&run, ReportFormat::Text)
    });
    count("core.report_bytes", text.len() as u64);
    atomic_write_via(&report_fs, dir.join("report.txt"), text.as_bytes()).expect("write report");
    let stdout = taxonomy(&run, &campaign);
    untimed(|| {
        t.cache_entries += (r.cache.exec_entries() + r.cache.frontend_entries()) as u64;
        t.add_cache(&r);
    });
    untimed(|| {
        case_glue(&mut r, &campaign, &cases, &compiler);
        t.shape = Some(Shape::of(&r));
    });
    drop((campaign, cases, run));
    drop_cache(r);
    (text, stdout)
}

/// The server side of one `serve` submission, as `accvv serve --jobs 1`
/// runs it: store bookkeeping around `run_submission`'s executor call.
struct Serve {
    store: ResultStore,
    /// The decomposed run's cache (children, then the real executor).
    r: Replay,
    /// The untraced replica's store and cache, with the same history.
    plain_store: ResultStore,
    plain_cache: Arc<CompileCache>,
    dir: PathBuf,
    journal_fs: Arc<dyn acc_validation::Vfs>,
    ops: u64,
}

impl Serve {
    fn new(dir: &Path) -> Self {
        let store_fs: Arc<dyn acc_validation::Vfs> =
            Arc::new(TimingFs::new(None, "harness.store_fsyncs"));
        std::fs::create_dir_all(dir.join("store")).expect("create store dir");
        std::fs::create_dir_all(dir.join("plain")).expect("create journal dir");
        let store = ResultStore::open_via(store_fs, dir.join("store").join("results.j1"))
            .expect("open result store");
        let plain_store =
            ResultStore::open(dir.join("plain").join("results.j1")).expect("open result store");
        Serve {
            store,
            plain_store,
            r: Replay::new(CompileCache::shared()),
            plain_cache: CompileCache::shared(),
            dir: dir.to_path_buf(),
            journal_fs: Arc::new(TimingFs::new(
                Some("core.journal_sync"),
                "core.journal_fsyncs",
            )),
            ops: 0,
        }
    }

    fn op(&mut self, body: &str, instrs: &mut InstrCounts, t: &mut Totals) -> String {
        let spec = SubmissionSpec::from_json(&acc_obs::json::parse(body).expect("op is JSON"))
            .expect("op is a valid submission");
        let store = &self.store;
        let compiler = spec.compiler().expect("valid release");
        let scope = compiler.label();
        let id = span("harness.store_append", || {
            store.begin(&spec.tenant, &scope, "text")
        })
        .expect("store begin");
        span("harness.store_append", || {
            store.set_state(id, "running", "")
        })
        .expect("store");
        let journal = FileJournal::create_via(
            Arc::clone(&self.journal_fs),
            self.dir.join("store").join(format!("journal-{id}.j1")),
        )
        .expect("create journal");
        let latency = LatencyCollector::new();
        let suite = span("testsuite.generate", full_suite);
        let campaign = Campaign::new(suite)
            .with_config(spec.suite_config())
            .with_cache(Arc::clone(&self.r.cache));
        let policy = ExecutorPolicy::new()
            .with_jobs(1)
            .with_exec_mode(spec.exec_mode)
            .with_journal(Arc::new(journal))
            .with_cancel(CancelToken::arc())
            .with_latency(latency.clone());
        let cases = campaign.materialized_cases();
        all_children(&mut self.r, instrs, &campaign, &cases, &compiler);
        let (run, _) = self.r.parent("core.executor", || {
            Executor::new(policy).run_suite_stats(&campaign, &compiler)
        });
        let text = span("core.report_render", || report::render(&run, spec.format));
        count("core.report_bytes", text.len() as u64);
        span("harness.store_append", || {
            store.record_cases(id, &run.results)?;
            store.record_latency(id, &latency.snapshot())?;
            store.record_report(id, &text)?;
            store.set_state(id, "done", "")
        })
        .expect("store append");
        untimed(|| {
            case_glue(&mut self.r, &campaign, &cases, &compiler);
            t.shape = Some(Shape::of(&self.r));
            self.r.touched.clear();
        });
        self.ops += 1;
        text
    }

    /// The untraced replica of the server's `run_one`: the same store calls
    /// around `run_submission`, on its own store and cache. Its one span,
    /// `server.run_submission`, is the server's time per submission from
    /// the scheduler handing it over to the report.
    fn plain_op(&self, body: &str) -> String {
        let spec = SubmissionSpec::from_json(&acc_obs::json::parse(body).expect("op is JSON"))
            .expect("op is a valid submission");
        let store = &self.plain_store;
        let scope = spec.compiler().expect("valid release").label();
        let id = store
            .begin(&spec.tenant, &scope, "text")
            .expect("store begin");
        store.set_state(id, "running", "").expect("store");
        let journal = FileJournal::create(self.dir.join("plain").join(format!("journal-{id}.j1")))
            .expect("create journal");
        let latency = LatencyCollector::new();
        let opts = RunOptions {
            jobs: 1,
            cache: Some(Arc::clone(&self.plain_cache)),
            journal: Some(Arc::new(journal)),
            cancel: Some(CancelToken::arc()),
            latency: Some(latency.clone()),
            ..RunOptions::default()
        };
        let outcome =
            span("server.run_submission", || run_submission(&spec, &opts)).expect("run_submission");
        store.record_cases(id, &outcome.run.results).expect("store");
        store
            .record_latency(id, &latency.snapshot())
            .expect("store");
        store.record_report(id, &outcome.report).expect("store");
        store.set_state(id, "done", "").expect("store");
        outcome.report
    }

    /// What one client's `/v1/query` and `/v1/history` pair asks the store.
    fn reads(&self, vendor: &str) {
        let filter = QueryFilter {
            scope: vendor.to_string(),
            ..QueryFilter::default()
        };
        count("harness.store_queries", 1);
        std::hint::black_box(span("harness.store_query", || self.store.query(&filter)));
        let req = HistoryRequest {
            bucket: 3600,
            since: 0,
            until: u64::MAX,
            by: GroupBy::Profile,
            tenant: String::new(),
            scope: String::new(),
        };
        std::hint::black_box(span("harness.history", || history(&self.store, &req)));
    }
}

/// One op, traced; returns its output bytes as the oracle digests them.
fn traced_op(
    workload: &str,
    line: &str,
    dir: &Path,
    serve: &mut Option<Serve>,
    instrs: &mut InstrCounts,
    t: &mut Totals,
) -> Vec<u8> {
    match workload {
        "campaign" => campaign_op(parse_vendor(line.trim()), instrs, t).into_bytes(),
        "run" => {
            let (compiler, lang) = parse_release(line);
            let (report, stdout) = release_op(compiler, lang, dir, instrs, t);
            untimed(|| run_output(report, &stdout))
        }
        "serve" => serve
            .as_mut()
            .expect("serve state")
            .op(line, instrs, t)
            .into_bytes(),
        other => panic!("unknown workload `{other}`"),
    }
}

/// The same op untraced, in this process; returns its output and the
/// compile cache it left.
fn plain_op(
    workload: &str,
    line: &str,
    dir: &Path,
    serve: &Option<Serve>,
) -> (Vec<u8>, Arc<CompileCache>) {
    let cache = match serve {
        Some(s) => Arc::clone(&s.plain_cache),
        None => CompileCache::shared(),
    };
    let out = match workload {
        "campaign" => plain_campaign(parse_vendor(line.trim()), &cache).into_bytes(),
        "run" => {
            let (compiler, lang) = parse_release(line);
            let stdout = plain_release(&compiler, lang, dir, &cache);
            let report = std::fs::read_to_string(dir.join("plain.txt")).expect("read report");
            run_output(report, &stdout)
        }
        "serve" => serve
            .as_ref()
            .expect("serve state")
            .plain_op(line)
            .into_bytes(),
        other => panic!("unknown workload `{other}`"),
    };
    (out, cache)
}

/// `VENDOR VERSION LANG`, as the ops file gives a release op.
fn parse_release(line: &str) -> (VendorCompiler, Option<Language>) {
    let f: Vec<&str> = line.split_whitespace().collect();
    let compiler = VendorCompiler::new(parse_vendor(f[0]), f[1].parse().expect("version"));
    (compiler, parse_lang(f[2]))
}

/// A release op's output: the report, a NUL, then stdout.
fn run_output(report: String, stdout: &str) -> Vec<u8> {
    let mut bytes = report.into_bytes();
    bytes.push(0);
    bytes.extend_from_slice(stdout.as_bytes());
    bytes
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() != 6 {
        eprintln!("usage: perfbench-trace <campaign|run|serve> <ops-file> <work-dir> <budget-seconds> <query-every>");
        eprintln!("(a `round` line in a serve ops file starts a fresh server)");
        std::process::exit(2);
    }
    let workload = args[1].as_str();
    let ops_text = std::fs::read_to_string(&args[2]).expect("read ops file");
    let work = PathBuf::from(&args[3]);
    let budget: f64 = args[4].parse().expect("budget seconds");
    let query_every: u64 = args[5].parse().expect("query interval");
    std::fs::create_dir_all(&work).expect("create work dir");

    let mut t = Totals {
        mirror_ok: true,
        same_output: true,
        ..Totals::default()
    };
    let mut instrs = InstrCounts::default();
    let mut serve = (workload == "serve").then(|| Serve::new(&work.join("round0")));
    let mut rounds = 0;
    let start = Instant::now();
    for (i, line) in ops_text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
    {
        if !t.op_ms.is_empty() && start.elapsed().as_secs_f64() > budget {
            break;
        }
        // A serve round runs on a fresh server: a fresh store and cache.
        if line == "round" {
            if let Some(s) = serve.as_ref().filter(|s| s.ops > 0) {
                t.add_cache(&s.r);
                rounds += 1;
                serve = Some(Serve::new(&work.join(format!("round{rounds}"))));
            }
            continue;
        }
        let dir = work.join("run");
        std::fs::create_dir_all(&dir).expect("create run dir");
        // The untraced run goes first on even ops and last on odd ones, so
        // neither side always meets the disk right after the other's fsyncs.
        let plain = |serve: &Option<Serve>| timed_plain(|| plain_op(workload, line, &dir, serve));
        let plain_before = (i % 2 == 0).then(|| plain(&serve));
        let op = timing::begin_op();
        let out = traced_op(workload, line, &dir, &mut serve, &mut instrs, &mut t);
        t.op_ms.push(timing::end_op(op));
        let ((plain_out, plain_cache), plain_ms) = plain_before.unwrap_or_else(|| plain(&serve));
        t.same_output &= plain_out == out;
        t.mirror_ok &= t.shape.take().is_some_and(|s| s.matches(&plain_cache));
        t.plain_ms.push(plain_ms);
        t.digests.push(sha256::hex(&out));
        let _ = std::fs::remove_dir_all(&dir);
        if let Some(s) = &serve {
            if s.ops % query_every == 0 {
                let vendor = acc_obs::json::parse(line)
                    .ok()
                    .and_then(|j| j.get("vendor").and_then(|v| v.as_str()).map(str::to_string))
                    .unwrap_or_default();
                s.reads(&vendor_scope(&vendor));
            }
        }
    }
    if let Some(s) = &serve {
        t.cache_entries = (s.r.cache.exec_entries() + s.r.cache.frontend_entries()) as u64;
        t.add_cache(&s.r);
    }
    print_json(&t);
}

/// The scope prefix a `/v1/query?scope=` for this vendor matches.
fn vendor_scope(vendor: &str) -> String {
    match vendor {
        "caps" => "CAPS",
        "pgi" => "PGI",
        "cray" => "Cray",
        _ => "Reference",
    }
    .to_string()
}

fn print_json(t: &Totals) {
    let (self_ns, counts) = timing::snapshot();
    let mut s = String::from("{");
    s.push_str(&format!("\"ops\":{},", t.op_ms.len()));
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.6}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    s.push_str(&format!("\"op_ms\":[{}],", list(&t.op_ms)));
    s.push_str(&format!("\"plain_ms\":[{}],", list(&t.plain_ms)));
    let selfs: Vec<String> = self_ns
        .iter()
        .map(|(k, v)| format!("\"{k}\":{:.6}", *v as f64 / 1e6))
        .collect();
    s.push_str(&format!("\"self_ms\":{{{}}},", selfs.join(",")));
    let cs: Vec<String> = counts.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    s.push_str(&format!("\"counts\":{{{}}},", cs.join(",")));
    s.push_str(&format!(
        "\"cache\":{{\"frontend_hits\":{},\"frontend_misses\":{},\"exec_hits\":{},\"exec_misses\":{},\"entries\":{}}},",
        t.frontend_hits, t.frontend_misses, t.exec_hits, t.exec_misses, t.cache_entries
    ));
    let ds: Vec<String> = t.digests.iter().map(|d| format!("\"{d}\"")).collect();
    s.push_str(&format!("\"digests\":[{}],", ds.join(",")));
    s.push_str(&format!(
        "\"mirror_ok\":{},\"same_output\":{}}}",
        t.mirror_ok, t.same_output
    ));
    println!("{s}");
}
