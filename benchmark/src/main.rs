//! Command line of the repo benchmark (see `benchmark/README.md`).
//!
//! ```text
//! colock-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run: a line per metric `workload metric value unit`, then, as the
//!     last stdout line, the JSON result the driver reads
//! colock-benchmark [--workload <name>] [--seed <n>] [--seconds <s>]
//!     the suite: every workload plain, then traced (both `run_seconds` of
//!     BENCHMARK.json unless `--seconds` shortens them for a smoke run);
//!     a line per metric, result.json + spans
//! colock-benchmark --check            lint + certify a traced window per workload
//! colock-benchmark --selfcheck        the plain suite twice; spreads vs bounds
//! colock-benchmark --print-contract   the text of BENCHMARK.json
//! ```
//!
//! The suite and `--selfcheck` run every measurement in a child process of
//! its own (this same executable in one-run mode): `peak_rss_mb` reads the
//! process's high-water mark, which a second run in the same process would
//! inherit from the first.

use colock_benchmark::check::check_workload;
use colock_benchmark::run::{run_workload, RunConfig, RunOutput};
use colock_benchmark::spec::{benchmark_json, metric, Workload, END_TO_END, RUN_SECONDS};
use colock_benchmark::sys;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    check: bool,
    selfcheck: bool,
    print_contract: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: None,
        check: false,
        selfcheck: false,
        print_contract: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                });
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--print-contract" => args.print_contract = true,
            "--check" => args.check = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn unit_of(name: &str) -> &'static str {
    metric(name).map_or("", |m| m.unit)
}

/// The driver's result line.
fn result_json(out: &RunOutput) -> String {
    let mut s = format!(
        r#"{{"correct": true, "attempted": {}, "failed": {}, "metrics": {{"#,
        out.attempted, out.failed
    );
    for (i, (name, value)) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            r#"{sep}"{name}": {{"value": {value}, "unit": "{}"}}"#,
            unit_of(name)
        );
    }
    s.push_str("}}");
    s
}

fn write_spans(dir: &Path, workload: Workload, out: &RunOutput) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.jsonl", workload.name()));
    let mut text = out.span_lines.join("\n");
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// One run in this process: metric lines, then the JSON result line.
fn run_here(cfg: &RunConfig, args: &Args) -> Result<(), String> {
    let out = run_workload(cfg)?;
    if let Some((name, v)) = out.metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric {name} is {v}"));
    }
    if cfg.trace {
        write_spans(&args.out, cfg.workload, &out)?;
    }
    for (class, n) in &out.sample_counts {
        eprintln!("# {} {class} latencies: {n} samples", cfg.workload.name());
    }
    for (name, value) in &out.metrics {
        println!("{} {name} {value} {}", cfg.workload.name(), unit_of(name));
    }
    println!("{}", result_json(&out));
    Ok(())
}

/// One run in a child process; its metrics in reporting order.
fn run_child(cfg: &RunConfig, out_dir: &Path) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let child = Command::new(exe)
        .args(["--workload", cfg.workload.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start a run: {e}"))?;
    if !child.status.success() {
        return Err(format!(
            "{} run failed ({})",
            cfg.workload.name(),
            child.status
        ));
    }
    String::from_utf8_lossy(&child.stdout)
        .lines()
        // The metric lines; the JSON result line is the driver's.
        .filter(|line| !line.starts_with('{'))
        .map(|line| {
            let mut fields = line.split_whitespace().skip(1);
            let name = fields.next().ok_or("short metric line")?;
            let value = fields
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or("bad metric value")?;
            Ok((name.to_string(), value))
        })
        .collect::<Result<_, &str>>()
        .map_err(|e| format!("{}: {e}", cfg.workload.name()))
}

fn workloads(args: &Args) -> Vec<Workload> {
    args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w])
}

/// Every workload plain, then traced; lines on stdout, `result.json` and the
/// span files in the output directory.
fn suite(args: &Args) -> Result<(), String> {
    eprintln!("# host: {}", sys::host_line());
    let mut json = format!(
        "{{\n  \"host\": \"{}\",\n  \"seed\": {},\n  \"workloads\": {{",
        sys::host_line(),
        args.seed
    );
    for (i, workload) in workloads(args).into_iter().enumerate() {
        let plain = RunConfig {
            workload,
            seed: args.seed,
            seconds: args.seconds.unwrap_or(f64::from(RUN_SECONDS)),
            trace: false,
        };
        let traced = RunConfig {
            trace: true,
            ..plain
        };
        let mut metrics = run_child(&plain, &args.out)?;
        metrics.extend(run_child(&traced, &args.out)?);
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(json, "{sep}\n    \"{}\": {{", workload.name());
        for (j, (name, value)) in metrics.iter().enumerate() {
            let unit = unit_of(name);
            println!("{} {name} {value} {unit}", workload.name());
            let sep = if j == 0 { "" } else { "," };
            let _ = write!(
                json,
                "{sep}\n      \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("\n    }");
    }
    json.push_str("\n  }\n}\n");
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let path = args.out.join("result.json");
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))
}

/// The plain suite twice, back to back: every end-to-end metric of every
/// workload must agree within its bound. Prints the observed spread per
/// metric and stores it in `selfcheck.json` in the output directory.
fn selfcheck(args: &Args) -> Result<(), String> {
    let seconds = args.seconds.unwrap_or(f64::from(RUN_SECONDS));
    let mut outside: Vec<String> = Vec::new();
    let mut json = String::from("{\n  \"repeatability\": {");
    println!("workload metric first second spread bound verdict");
    for (i, workload) in workloads(args).into_iter().enumerate() {
        let cfg = RunConfig {
            workload,
            seed: args.seed,
            seconds,
            trace: false,
        };
        let first = run_child(&cfg, &args.out)?;
        let second = run_child(&cfg, &args.out)?;
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(json, "{sep}\n    \"{}\": {{", workload.name());
        for (j, ((name, a), (_, b))) in first.iter().zip(&second).enumerate() {
            let spec = END_TO_END
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("{name} is not an end-to-end metric"))?;
            // Either run may be the worse one: the distance, as a share of
            // the first.
            let spread = (a - b).abs() / a;
            let ok = spread <= spec.bound;
            println!(
                "{} {name} {a} {b} {spread:.4} {} {}",
                workload.name(),
                spec.bound,
                if ok { "ok" } else { "OUTSIDE" }
            );
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(json, "{sep}\"{name}\": {spread:.4}");
            if !ok {
                outside.push(format!("{} {name}", workload.name()));
            }
        }
        json.push('}');
    }
    json.push_str("\n  }\n}\n");
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let path = args.out.join("selfcheck.json");
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    if outside.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "two runs of the same code differ beyond the bound on: {}",
            outside.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("colock-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.print_contract {
        print!("{}", benchmark_json());
        Ok(())
    } else if args.check {
        workloads(&args)
            .into_iter()
            .try_for_each(|w| check_workload(w, args.seed).map(|line| println!("{line}")))
    } else if args.selfcheck {
        selfcheck(&args)
    } else if let (Some(workload), Some(trace)) = (args.workload, args.trace) {
        let cfg = RunConfig {
            workload,
            seed: args.seed,
            seconds: args.seconds.unwrap_or(f64::from(RUN_SECONDS)),
            trace,
        };
        run_here(&cfg, &args)
    } else {
        suite(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // A failed check prints no metrics.
            eprintln!("colock-benchmark: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
