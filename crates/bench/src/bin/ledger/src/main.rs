//! `ledger` — the repository's one perf ledger.
//!
//! ```text
//! ledger                                  every workload, end-to-end then traced
//! ledger --workload NAME [--trace 0|1]    one workload (what the driver runs)
//! ledger repeat                           two end-to-end sets, gaps against the bounds
//! common flags: --seed N  --seconds S  --smoke
//! ```
//!
//! Each workload runs in a fresh child process, so the once-per-process host
//! calibration, the global kernel pool and the peak resident set are per
//! workload.  Everything is measured from outside, through the layers' public
//! functions, with the environment defaults as shipped except the kernel
//! pool's size ([`KERNEL_THREADS`]).  See `README.md` next to this package for
//! the metric glossary.

mod json;
mod layers;
mod load;
mod metrics;
mod roofline;
mod stats;
mod trace;
mod workloads;

use metrics::{Better, MetricDef, Report, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Inputs, Scale, WorkloadDef, WORKLOADS};

/// Seconds one run measures unless `--seconds` says otherwise
/// (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 27.0;
/// Seconds one `--smoke` run measures.
const SMOKE_SECONDS: f64 = 1.0;
/// The variable that sizes the process-wide kernel pool, and the size the
/// ledger gives it: kernels run on the thread that calls them.  The box has
/// two cores that it shares with other tenants; a row-parallel kernel that
/// waits at its barrier for a second core measures who else was on that core
/// (10 seeds of `pruned_wide`: best-window p50 spread 0.20 with the shipped
/// pool of two, 0.04 with one).  Every other default stays as shipped.
const KERNEL_THREADS: (&str, &str) = ("DYNASPARSE_THREADS", "1");

#[derive(Debug, Clone, PartialEq)]
struct Args {
    repeat: bool,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
}

impl Args {
    fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            repeat: false,
            workload: None,
            seed: 1,
            seconds: None,
            trace: None,
            smoke: false,
        };
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            let mut value = |flag: &str| argv.next().ok_or(format!("{flag} needs a value"));
            match arg.as_str() {
                "repeat" => args.repeat = true,
                "--smoke" => args.smoke = true,
                "--workload" => args.workload = Some(value("--workload")?),
                "--seed" => {
                    args.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed takes a whole number".to_string())?
                }
                "--seconds" => {
                    let s: f64 = value("--seconds")?
                        .parse()
                        .map_err(|_| "--seconds takes a number".to_string())?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    args.seconds = Some(s);
                }
                "--trace" => {
                    args.trace = Some(match value("--trace")?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if args.repeat && (args.workload.is_some() || args.trace.is_some()) {
            return Err("repeat runs every workload end-to-end; drop --workload/--trace".into());
        }
        Ok(args)
    }

    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }

    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        }
    }
}

/// Any `DYNASPARSE_*` variable would change what is measured (telemetry
/// level, pricing cache, backend, threads, calibration): refuse to run.
fn dirty_environment() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("DYNASPARSE_"))
        .collect();
    names.sort();
    names
}

/// The checked-out commit, read from `.git` in the working directory (no
/// subprocess; a checkout without `.git` is "unknown").
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string())
}

fn provenance(seed: u64, seconds: f64, smoke: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "# ledger commit={} nproc={nproc} kernel_threads={} rustc=\"{}\" seed={seed} seconds={seconds}{}",
        git_commit(),
        KERNEL_THREADS.1,
        rustc_version(),
        if smoke { " smoke" } else { "" }
    )
}

/// Runs one workload in this process: the end-to-end run (`trace` off) or
/// the traced run, and returns the report with the catalogue it fills.
fn run_workload(
    def: &'static WorkloadDef,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: &Scale,
) -> (Report, &'static [MetricDef]) {
    let inputs = Inputs::generate(def, seed, scale);
    if trace {
        (layers::run_traced(&inputs, seconds, scale), PER_LAYER)
    } else {
        (
            workloads::run_end_to_end(&inputs, seconds, scale),
            END_TO_END,
        )
    }
}

/// Driver mode: one workload, result line last.
fn run_single(def: &'static WorkloadDef, args: &Args) -> ExitCode {
    let trace = args.trace.unwrap_or(false);
    println!("{}", provenance(args.seed, args.seconds(), args.smoke));
    println!(
        "# workload={} run={} why: {}",
        def.name,
        if trace { "traced" } else { "end-to-end" },
        def.why
    );
    let (report, catalogue) = run_workload(def, args.seed, args.seconds(), trace, &args.scale());
    print!("{}", report.table(catalogue));
    for note in &report.notes {
        println!("  {note}");
    }
    println!(
        "  requests: attempted={} failed={}",
        report.attempted, report.failed
    );
    for violation in &report.violations {
        println!("  CHECK FAILED: {violation}");
    }
    println!("{}", report.result_line(catalogue));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What the parent keeps of one child run.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// Re-executes this binary for one workload and reads its result line.
fn run_child(
    def: &WorkloadDef,
    args: &Args,
    trace: bool,
    echo: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        // The child refuses a dirty environment and pins the pool itself.
        .env_remove(KERNEL_THREADS.0)
        .args(["--workload", def.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child, so no process outlives the ledger.
    let output = command
        .output()
        .map_err(|e| format!("cannot start child for {}: {e}", def.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{}: child printed nothing", def.name))?;
    let value = json::parse(last).map_err(|e| format!("{}: bad result line: {e}", def.name))?;
    let field = |name: &str| value.get(name).ok_or(format!("{}: no {name}", def.name));
    let metrics = field("metrics")?
        .as_object()
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, m)| {
            let v = m.get("value").and_then(json::Value::as_f64).unwrap_or(0.0);
            (name.clone(), v)
        })
        .collect();
    Ok(ChildResult {
        correct: field("correct")?.as_bool().unwrap_or(false) && output.status.success(),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0) as u64,
        failed: field("failed")?.as_f64().unwrap_or(0.0) as u64,
        metrics,
    })
}

/// One end-to-end set: every workload once, in a child each.
fn run_set(args: &Args, echo: bool) -> Result<Vec<ChildResult>, String> {
    WORKLOADS
        .iter()
        .map(|def| run_child(def, args, false, echo))
        .collect()
}

fn print_summary(set: &[ChildResult]) {
    println!("\n== end-to-end summary ==");
    let headers: Vec<String> = END_TO_END
        .iter()
        .map(|def| format!("{} [{}]", def.name, def.unit))
        .collect();
    print!("{:<20}", "workload");
    for header in &headers {
        print!("  {header}");
    }
    println!("  attempted  failed");
    for (def, result) in WORKLOADS.iter().zip(set) {
        print!("{:<20}", def.name);
        for (metric, header) in END_TO_END.iter().zip(&headers) {
            let value = result
                .metrics
                .iter()
                .find(|(n, _)| n == metric.name)
                .map_or(f64::NAN, |m| m.1);
            print!("  {value:>width$.4}", width = header.len());
        }
        println!("  {:>9}  {:>6}", result.attempted, result.failed);
    }
}

/// Default mode: every workload end-to-end, then traced.
fn run_all(args: &Args) -> ExitCode {
    println!("{}", provenance(args.seed, args.seconds(), args.smoke));
    let mut ok = true;
    let mut set = Vec::new();
    for trace in [false, true] {
        for def in WORKLOADS {
            println!();
            match run_child(def, args, trace, true) {
                Ok(result) => {
                    ok &= result.correct;
                    if !trace {
                        set.push(result);
                    }
                }
                Err(e) => {
                    eprintln!("ledger: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    print_summary(&set);
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("ledger: at least one workload failed its checks");
        ExitCode::FAILURE
    }
}

/// Runs of every workload behind each side of `ledger repeat`.
const REPEAT_ROUNDS: usize = 3;

/// `ledger repeat`: two end-to-end sets of the same code, interleaved
/// (first, second, first, …) over [`REPEAT_ROUNDS`] rounds so that a drift of
/// the box lands on both; the medians of every metric of every workload must
/// agree within its bound.
fn run_repeat(args: &Args) -> ExitCode {
    println!("{}", provenance(args.seed, args.seconds(), args.smoke));
    let mut sets: [Vec<Vec<ChildResult>>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..REPEAT_ROUNDS {
        for side in &mut sets {
            match run_set(args, false) {
                Ok(set) => side.push(set),
                Err(e) => {
                    eprintln!("ledger: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let mut ok = sets
        .iter()
        .flatten()
        .flatten()
        .all(|r| r.correct && r.failed == 0);
    println!(
        "medians of {REPEAT_ROUNDS} runs a side\n{:<20} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (i, def) in WORKLOADS.iter().enumerate() {
        for metric in END_TO_END {
            let read = |side: &[Vec<ChildResult>]| {
                let runs: Vec<f64> = side
                    .iter()
                    .filter_map(|set| set[i].metrics.iter().find(|(n, _)| n == metric.name))
                    .map(|m| m.1)
                    .collect();
                stats::median(&runs)
            };
            let (first, second) = (read(&sets[0]), read(&sets[1]));
            let worse = stats::relative_worsening(first, second, metric.better == Better::Lower);
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            // The two sides ran the same code, so either direction is noise.
            let within = worse.abs() <= bound;
            ok &= within;
            println!(
                "{:<20} {:<20} {first:>14.4} {second:>14.4} {:>+8.2}% {:>6.0}%{}",
                def.name,
                metric.name,
                worse * 100.0,
                bound * 100.0,
                if within { "" } else { "  EXCEEDED" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("ledger: a gap exceeded its bound, or a workload failed its checks");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}\nusage: ledger [repeat] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]");
            return ExitCode::from(2);
        }
    };
    let dirty = dirty_environment();
    if !dirty.is_empty() {
        eprintln!(
            "ledger: refusing to run with {} set; the ledger measures the shipped defaults",
            dirty.join(", ")
        );
        return ExitCode::from(2);
    }
    // Before the first kernel runs: the pool reads this once, when it starts.
    std::env::set_var(KERNEL_THREADS.0, KERNEL_THREADS.1);
    match &args.workload {
        Some(name) => match workloads::find(name) {
            Some(def) => run_single(def, &args),
            None => {
                let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!(
                    "ledger: unknown workload {name}; known: {}",
                    known.join(", ")
                );
                ExitCode::from(2)
            }
        },
        None if args.repeat => run_repeat(&args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_the_way_the_driver_passes_them() {
        let a = parse(&[
            "--workload",
            "pruned_wide",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("pruned_wide"));
        assert_eq!((a.seed, a.seconds(), a.trace), (9, 10.0, Some(true)));
        assert_eq!(parse(&["--smoke"]).unwrap().seconds(), SMOKE_SECONDS);
        assert!(parse(&["repeat"]).unwrap().repeat);
        assert!(parse(&["repeat", "--trace", "1"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }

    /// `BENCHMARK.json` and the catalogues name the same (gated) workloads
    /// and metrics, each once, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).unwrap();
        let rows = |key: &str| doc.get(key).unwrap().as_array().unwrap().to_vec();
        let text_of =
            |row: &json::Value, key: &str| row.get(key).unwrap().as_str().unwrap().to_string();

        // The driver is given the gated workloads, in the ledger's order.
        let workloads = rows("workloads");
        let gated: Vec<_> = WORKLOADS.iter().filter(|w| w.gated).collect();
        assert_eq!(workloads.len(), gated.len());
        for (row, def) in workloads.iter().zip(gated) {
            assert_eq!(text_of(row, "name"), def.name);
            assert_eq!(text_of(row, "why"), def.why);
            assert!(metrics::valid_name(def.name));
            assert!(
                def.why.len() <= 200 && !def.why.contains('\n'),
                "{}",
                def.name
            );
        }
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = rows(key);
            assert_eq!(listed.len(), catalogue.len(), "{key}");
            for (row, def) in listed.iter().zip(catalogue) {
                assert_eq!(text_of(row, "name"), def.name);
                assert_eq!(text_of(row, "unit"), def.unit, "{}", def.name);
                assert_eq!(text_of(row, "better"), def.better.label(), "{}", def.name);
                assert_eq!(
                    row.get("bound").and_then(json::Value::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS)
        );
        let paths = rows("paths");
        assert_eq!(paths.len(), 1);
        assert!(env!("CARGO_MANIFEST_DIR").ends_with(paths[0].as_str().unwrap()));
    }

    /// `--smoke`: all seven workloads, end-to-end and traced, emit exactly
    /// the catalogue and pass their own output checks.
    #[test]
    fn smoke_runs_every_workload_and_emits_every_metric_once() {
        for def in WORKLOADS {
            for trace in [false, true] {
                let (report, catalogue) = run_workload(def, 3, SMOKE_SECONDS, trace, &Scale::SMOKE);
                assert!(report.unknown_names(catalogue).is_empty(), "{}", def.name);
                // `result_line` panics on a metric that was never measured.
                let line = json::parse(&report.result_line(catalogue)).unwrap();
                let emitted = line.get("metrics").unwrap().as_object().unwrap().len();
                assert_eq!(emitted, catalogue.len(), "{} trace={trace}", def.name);
                assert!(
                    report.correct(),
                    "{} trace={trace}: failed={} {:?}",
                    def.name,
                    report.failed,
                    report.violations
                );
            }
        }
    }
}
