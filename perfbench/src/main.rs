//! `koko-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric of the run as `name value unit`, then one JSON
//! result line: the end-to-end metrics (`--trace 0`) or the per-layer
//! ones (`--trace 1`). Exits 1 if any reply differed from the reference.

use koko_perfbench::measure::Metric;
use koko_perfbench::spec::{self, Workload};
use koko_perfbench::{run, RunArgs, PER_LAYER};
use std::path::PathBuf;
use std::time::Duration;

fn parse_args() -> Result<RunArgs, String> {
    let mut args = RunArgs {
        workload: Workload::WikiRead,
        seed: spec::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::from(".bench_work"),
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("expected seconds in (0, 600]"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("error: {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    eprintln!(
        "{} seed={} seconds={} trace={} cores={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let out = run(&args);
    for line in &out.notes {
        println!("{line}");
    }

    let metrics: Vec<Metric> = if args.trace {
        let layers = &out.layers;
        // Attribute the traced phase's wall-clock to the named spans
        // inside it; what no span covers is `other`.
        let spans = out.tracer.spans();
        let (from, to) = spans
            .iter()
            .find(|s| s.name == "phase")
            .map_or((Duration::ZERO, Duration::ZERO), |s| (s.start, s.end));
        let phase = to - from;
        let named = out
            .tracer
            .self_times(|s| s.start >= from && s.end <= to && s.name != "phase" && s.name != "op");
        let covered: Duration = named.values().sum();
        let other = phase.saturating_sub(covered);
        for (name, d) in &named {
            println!(
                "span.{name}.self_ms {:.3} ms ({:.1}% of the traced phase)",
                d.as_secs_f64() * 1e3,
                100.0 * d.as_secs_f64() / phase.as_secs_f64()
            );
        }
        println!(
            "span.other.self_ms {:.3} ms ({:.1}% of the traced phase)",
            other.as_secs_f64() * 1e3,
            100.0 * other.as_secs_f64() / phase.as_secs_f64()
        );
        let untraced = layers.mean("trace.untraced_read_qps");
        let traced = layers.mean("trace.traced_read_qps");
        println!(
            "trace overhead: read_qps {traced:.2} traced vs {untraced:.2} untraced ({:+.2}%)",
            100.0 * (traced / untraced - 1.0)
        );
        for (name, s) in &layers.calls {
            if !PER_LAYER.iter().any(|(n, _)| n == name) {
                println!("{name} {:.4} (mean of {} calls)", s.mean(), s.len());
            }
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.to_string(),
                value: if name == "trace.other_share" {
                    other.as_secs_f64() / phase.as_secs_f64()
                } else {
                    layers.mean(name)
                },
                unit,
            })
            .collect()
    } else {
        out.end_to_end.clone()
    };
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        let path = args.work_dir.join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match std::fs::write(&path, out.tracer.to_jsonl()) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: {}: {e}", path.display()),
        }
    }

    let correct = out.failed == 0;
    let body: Vec<String> = metrics
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
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
