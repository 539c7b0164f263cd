//! End-to-end integration: template text → expansion → generated C and
//! Fortran programs → vendor compilation → simulated execution →
//! functional/cross verdicts → reports.

use openacc_vv::prelude::*;
use openacc_vv::validation::harness::run_case;
use openacc_vv::validation::report;
use openacc_vv::validation::template::parse_templates;

const TEMPLATE: &str = r#"
<acctest name="e2e.saxpy" feature="parallel.copy" cross="replace-clause:parallel.copy->create">
<description>end-to-end saxpy through the whole stack</description>
<code>
int main(void) {
    int error = 0;
    float X[32];
    float Y[32];
    float a = 2.0f;
    for (i = 0; i < 32; i++)
    {
        X[i] = i;
        Y[i] = 1.0f;
    }
    #pragma acc parallel copyin(X[0:32]) copy(Y[0:32])
    {
        #pragma acc loop
        for (i = 0; i < 32; i++)
        {
            Y[i] = a * X[i] + Y[i];
        }
    }
    for (i = 0; i < 32; i++)
    {
        if (Y[i] != 2.0f * i + 1.0f)
        {
            error++;
        }
    }
    return error == 0;
}
</code>
</acctest>
"#;

#[test]
fn template_to_verdict_pipeline() {
    let case = parse_templates(TEMPLATE).unwrap().remove(0);
    // Both generated languages carry the directives.
    assert!(case
        .source_for(Language::C)
        .contains("#pragma acc parallel"));
    assert!(case
        .source_for(Language::Fortran)
        .contains("!$acc parallel"));
    // Reference: functional passes, cross discriminates at 100% certainty.
    let reference = VendorCompiler::reference();
    for lang in [Language::C, Language::Fortran] {
        let r = run_case(&case, &reference, lang);
        assert_eq!(r.status, TestStatus::Pass, "{lang}: {:?}", r.status);
        assert!(r.certainty.unwrap().validated());
    }
    // Every commercial latest release also passes this clean feature.
    for vendor in VendorId::COMMERCIAL {
        let compiler = VendorCompiler::latest(vendor);
        let r = run_case(&case, &compiler, Language::C);
        assert!(r.passed(), "{vendor}: {:?}", r.status);
    }
}

#[test]
fn full_suite_runs_produce_wellformed_reports() {
    let suite = openacc_vv::testsuite::full_suite();
    let campaign = Campaign::new(suite);
    let compiler = VendorCompiler::new(VendorId::Pgi, "12.6".parse().unwrap());
    let run = campaign.run_one(&compiler);
    // Every counted result is one of the taxonomy states; skipped results
    // only occur for Fortran variants of C-only tests.
    for r in &run.results {
        if r.language == Language::C {
            assert!(r.status.counted(), "{}: C variants always run", r.name);
        }
    }
    // All three report formats render non-trivially.
    for fmt in [ReportFormat::Text, ReportFormat::Csv, ReportFormat::Html] {
        let out = report::render(&run, fmt);
        assert!(out.len() > 200, "{fmt:?}");
        assert!(out.contains("PGI 12.6"));
    }
    // The async cluster must be visible in the failures.
    let failing = run.failing_features(Language::C);
    assert!(
        failing.iter().any(|f| f.as_str().contains("async")),
        "PGI 12.6 must fail async features: {failing:?}"
    );
}

#[test]
fn environment_variables_reach_the_runtime() {
    // The env.ACC_DEVICE_TYPE test passes only because the harness threads
    // the EnvConfig into the run.
    let suite = openacc_vv::testsuite::full_suite();
    let case = suite
        .iter()
        .find(|c| c.feature.as_str() == "env.ACC_DEVICE_TYPE")
        .unwrap();
    let r = run_case(case, &VendorCompiler::reference(), Language::C);
    assert!(r.passed(), "{:?}", r.status);
    // Strip the env and the same program must fail (the device type is no
    // longer HOST).
    let mut stripped = case.clone();
    stripped.env = openacc_vv::spec::envvar::EnvConfig::empty();
    let r = run_case(&stripped, &VendorCompiler::reference(), Language::C);
    assert_eq!(r.status, TestStatus::WrongResult);
}

#[test]
fn crash_timeout_and_compile_error_taxonomy_all_occur() {
    // Sweep every release of every vendor and collect the failure taxonomy;
    // the paper's three runtime error classes plus compile errors must all
    // be observable somewhere in the matrix.
    let suite = openacc_vv::testsuite::full_suite();
    let campaign = Campaign::new(suite);
    let mut total = FailureBreakdown::default();
    for vendor in VendorId::COMMERCIAL {
        for version in vendor.versions() {
            let run = campaign.run_one(&VendorCompiler::new(vendor, version));
            for lang in [Language::C, Language::Fortran] {
                let b = run.failure_breakdown(lang);
                total.compile_errors += b.compile_errors;
                total.wrong_results += b.wrong_results;
                total.crashes += b.crashes;
                total.timeouts += b.timeouts;
                total.infra += b.infra;
                total.flaky += b.flaky;
            }
        }
    }
    assert!(total.compile_errors > 0, "compile errors must occur");
    assert!(total.wrong_results > 0, "silent wrong results must occur");
    assert!(total.crashes > 0, "crashes must occur");
    assert!(total.timeouts > 0, "hangs (timeouts) must occur");
    // The vendor sweep is deterministic and panic-free: the two executor
    // classes never appear without injected infrastructure faults.
    assert_eq!(total.infra, 0, "no panics in a clean sweep");
    assert_eq!(total.flaky, 0, "no flakes without transient faults");
}

/// Run the `accvv` binary and return (success, stderr).
fn accvv(args: &[&str]) -> (bool, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_accvv"))
        .args(args)
        .output()
        .expect("spawn accvv");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn cli_rejects_flags_its_usage_does_not_name() {
    // A misspelled option fails before any case runs, naming the flag.
    let (ok, err) = accvv(&[
        "run",
        "--vendor",
        "pgi",
        "--version",
        "12.6",
        "--featurs",
        "loop",
        "--bogus-flag",
    ]);
    assert!(!ok, "a misspelled flag must exit nonzero");
    assert!(err.contains("unknown flag `--featurs`"), "{err}");
    assert!(
        !err.contains("case(s) failed"),
        "the suite must not run: {err}"
    );
    // A flag the subcommand no longer has is rejected too.
    let (ok, err) = accvv(&["disasm", "loop.gang", "--hot"]);
    assert!(!ok);
    assert!(err.contains("unknown flag `--hot`"), "{err}");
    // A known flag with an unknown value names the accepted engines.
    let (ok, err) = accvv(&["campaign", "--vendor", "caps", "--exec-mode", "par"]);
    assert!(!ok);
    assert!(err.contains("unknown exec mode `par` (vm|walk)"), "{err}");
    // The accepted spelling still works.
    let (ok, err) = accvv(&["disasm", "loop.gang", "--lang", "c"]);
    assert!(ok, "{err}");
}
