//! Command-line entry point:
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload handoff-4k --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints a table of every metric with its unit, then, as the last line
//! of standard output, one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--trace 1` reports the per-layer metrics instead of the end-to-end
//! ones and writes the recorded spans to `perfbench/out/`.

use perfbench::instruments::spans_json;
use perfbench::workloads::Workload;
use perfbench::{run, Options, Outcome};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <bulk-64m|rebalance-1m|handoff-4k|kv-put-64k> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Formats a metric value as JSON: every digit, never NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn write_spans(opts: &Options, outcome: &Outcome) -> std::io::Result<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "spans-{}-seed{}.json",
        opts.workload.name(),
        opts.seed
    ));
    let spans: Vec<_> = outcome
        .phases
        .iter()
        .flat_map(|p| p.spans.iter().cloned())
        .collect();
    std::fs::write(&path, spans_json(&spans))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "perfbench {} seed {} ({} s, trace {}): {} ops, {} failed",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        outcome.attempted,
        outcome.failed
    );
    for m in &outcome.metrics {
        println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if !outcome.diagnostics.is_empty() {
        println!("  not gated (co-tenant noise):");
    }
    for m in &outcome.diagnostics {
        println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if opts.trace {
        match write_spans(&opts, &outcome) {
            Ok(path) => println!("  spans written to {path}"),
            Err(e) => {
                eprintln!("perfbench: writing spans failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", result_json(&outcome));
    ExitCode::SUCCESS
}
