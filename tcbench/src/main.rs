//! `tcbench` — the repository benchmark. See `README.md` next to this
//! package for the workloads, the metrics and how to read the spans.
//!
//! ```text
//! tcbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!         [--quick] [--out FILE] [--spans-dir DIR]
//! tcbench compare BASE NEW [--bench BENCHMARK.json]
//! ```
//!
//! With `--workload` the workload runs in this process. Without it, each
//! workload runs in a child process of its own, so that `peak_rss_mb`
//! belongs to one workload. Every metric is printed as
//! `workload metric value unit`; the last line of standard output is the
//! result as one JSON object.

mod compare;
mod layers;
mod pim;
mod serve;
mod stats;

use serde_json::Value;
use stats::Tally;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = [
    "static-exact",
    "ingest-sampled",
    "dynamic-skew",
    "serve-mixed",
];

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// What a workload run reports.
pub struct Outcome {
    /// Operations attempted and failed, correctness checks included.
    pub tally: Tally,
    /// End-to-end metrics, or per-layer ones when traced.
    pub metrics: Vec<Metric>,
}

/// Options of one run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Input seed: the same seed builds the same inputs.
    pub seed: u64,
    /// How long the measured loop runs, seconds.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// ones.
    pub trace: bool,
    /// Test-size inputs and a single rep.
    pub quick: bool,
    /// Where traced runs write their spans.
    pub spans_dir: PathBuf,
}

impl Opts {
    /// The spans file of `workload` for this run.
    pub fn spans_path(&self, workload: &str) -> PathBuf {
        self.spans_dir
            .join(format!("spans-{workload}-seed{}.jsonl", self.seed))
    }
}

/// A seed for input stream `stream` of a run, derived from the run's
/// seed with the splitmix64 finalizer.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    pim_tc::host::splitmix64(seed ^ pim_tc::host::splitmix64(stream.wrapping_add(0x7C_BE_4C)))
}

/// Runs one workload in this process.
pub fn run_workload(name: &str, opts: &Opts) -> Option<Outcome> {
    if name == "serve-mixed" {
        return Some(serve::run(opts));
    }
    let w = pim::PimWorkload::named(name, opts.quick)?;
    Some(pim::run(&w, name, opts))
}

/// The result object printed as the last line of a single-workload run.
fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.tally.failed == 0 && outcome.tally.attempted > 0,
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(",")
    )
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s).expect("string serializes")
}

/// A finite number with every digit Rust's shortest round-trip form
/// gives; non-finite values (a ratio over nothing) print as 0.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

const USAGE: &str = "usage: tcbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--quick] [--out FILE] [--spans-dir DIR]\n       tcbench compare BASE NEW [--bench BENCHMARK.json]";

/// Parsed command line of a run.
struct Cli {
    workload: Option<String>,
    out: Option<PathBuf>,
    opts: Opts,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        out: None,
        opts: Opts {
            seed: 1,
            seconds: 14.0,
            trace: false,
            quick: false,
            spans_dir: PathBuf::from("target/tcbench"),
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            cli.opts.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload {value:?} (expected one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                cli.workload = Some(value.clone());
            }
            "--seed" => cli.opts.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                cli.opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?
            }
            "--trace" => {
                cli.opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value)),
            "--spans-dir" => cli.opts.spans_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if cli.opts.quick {
        cli.opts.seconds = 0.0;
    }
    Ok(cli)
}

/// Runs every workload in a child process of this executable and returns
/// `(workload, result line)` pairs.
fn run_children(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate tcbench: {e}"))?;
    let mut results = Vec::new();
    for w in WORKLOADS {
        let output = Command::new(&exe)
            .args(args)
            .args(["--workload", w])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {w}: {e}"))?;
        // A child that ran but failed a check still prints its result.
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or("").to_string();
        if !last.starts_with("{\"correct\":") {
            return Err(format!("{w} exited with {} and no result", output.status));
        }
        results.push((w.to_string(), last));
    }
    Ok(results)
}

fn print_metrics(workload: &str, result: &Value) {
    for (name, m) in result
        .get("metrics")
        .and_then(Value::as_object)
        .unwrap_or(&[])
    {
        println!(
            "{workload} {name} {} {}",
            json_num(m.get("value").and_then(Value::as_f64).unwrap_or(0.0)),
            m.get("unit").and_then(Value::as_str).unwrap_or("")
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::main(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let results = match &cli.workload {
        Some(w) => {
            let outcome = run_workload(w, &cli.opts).expect("workload names are validated");
            vec![(w.clone(), result_json(&outcome))]
        }
        None => {
            // Children print their results; this process writes `--out`.
            let mut forwarded = Vec::new();
            let mut it = args.iter();
            while let Some(a) = it.next() {
                if a == "--out" {
                    it.next();
                } else {
                    forwarded.push(a.clone());
                }
            }
            match run_children(&forwarded) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let mut all_correct = true;
    let mut total = Tally::default();
    let mut entries = Vec::new();
    for (w, line) in &results {
        let parsed = serde_json::from_str_value(line).unwrap_or(Value::Null);
        print_metrics(w, &parsed);
        all_correct &= parsed.get("correct").and_then(Value::as_bool) == Some(true);
        total.absorb(Tally {
            attempted: parsed.get("attempted").and_then(Value::as_u64).unwrap_or(0),
            failed: parsed.get("failed").and_then(Value::as_u64).unwrap_or(0),
        });
        entries.push(format!("{}:{line}", json_str(w)));
    }
    if let Some(out) = &cli.out {
        let record = format!(
            "{{\"seed\":{},\"seconds\":{},\"trace\":{},\"quick\":{},\"workloads\":{{{}}}}}\n",
            cli.opts.seed,
            json_num(cli.opts.seconds),
            cli.opts.trace,
            cli.opts.quick,
            entries.join(",")
        );
        let written = out
            .parent()
            .filter(|d| !d.as_os_str().is_empty())
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(out, record));
        if let Err(e) = written {
            eprintln!("error: cannot write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }
    match &results[..] {
        [(_, line)] => println!("{line}"),
        _ => println!(
            "{{\"correct\":{all_correct},\"attempted\":{},\"failed\":{},\"workloads\":{{{}}}}}",
            total.attempted,
            total.failed,
            entries.join(",")
        ),
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of each metric `BENCHMARK.json` lists under `key`.
    fn listed(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let bench = serde_json::from_str_value(&text).expect("BENCHMARK.json is JSON");
        bench
            .get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// The `--quick` harness end to end: every workload, untraced and
    /// traced, passes its checks and reports exactly the metrics and units
    /// `BENCHMARK.json` lists, in its order.
    #[test]
    fn quick_run_reports_every_listed_metric() {
        let spans_dir = std::env::temp_dir().join(format!("tcbench-quick-{}", std::process::id()));
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let opts = Opts {
                seed: 7,
                seconds: 0.0,
                trace,
                quick: true,
                spans_dir: spans_dir.clone(),
            };
            let want = listed(key);
            for w in WORKLOADS {
                let outcome = run_workload(w, &opts).unwrap();
                assert!(outcome.tally.attempted > 0, "{w}: nothing ran");
                assert_eq!(outcome.tally.failed, 0, "{w}: failed operations");
                let got: Vec<(String, String)> = outcome
                    .metrics
                    .iter()
                    .map(|m| (m.name.clone(), m.unit.to_string()))
                    .collect();
                assert_eq!(got, want, "{w} (trace {trace})");
                for m in &outcome.metrics {
                    assert!(m.value.is_finite(), "{w}: {} = {}", m.name, m.value);
                    if !trace {
                        assert!(m.value > 0.0, "{w}: {} is zero", m.name);
                    }
                }
                if trace {
                    let spans = std::fs::read_to_string(opts.spans_path(w)).unwrap();
                    assert!(spans.lines().count() > 1, "{w}: no spans");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&spans_dir);
    }

    #[test]
    fn parse_accepts_the_run_flags_and_rejects_junk() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let cli = parse(&args(
            "--workload serve-mixed --seed 3 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("serve-mixed"));
        assert_eq!(
            (cli.opts.seed, cli.opts.seconds, cli.opts.trace),
            (3, 2.5, true)
        );
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--trace yes")).is_err());
        assert!(parse(&args("--seconds -1")).is_err());
        assert!(parse(&args("--seed")).is_err());
    }
}
