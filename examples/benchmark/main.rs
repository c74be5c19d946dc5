//! `benchmark` — end-to-end and per-layer benchmark of the iiscope
//! study pipeline and its HTTP service.
//!
//! ```text
//! benchmark --workload <name|all> --seed <n> [--seconds <s>] [--trace 0|1]
//! benchmark compare BASE.jsonl NEW.jsonl
//! ```
//!
//! A run prints a table on stderr and, as the last line of stdout, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics untraced, the per-layer metrics with `--trace 1`
//! (which also writes `.bench_out/trace/<workload>.{spans.jsonl,
//! layers.json}` under the checkout's root). `--workload all` runs each
//! workload in its own process, so peak RSS and the process-wide
//! counters belong to that workload alone, and prints one line per
//! workload with its name, seed and whether its report matched a
//! committed digest; `compare` reads two files of such lines. See
//! README.md.

mod compare;
mod driver;
mod probes;
mod session;
mod stats;
mod trace;

use iiscope_wire::Json;
use session::{Outcome, Run, Workload};
use stats::metrics_json;
use std::process::{Command, ExitCode, Stdio};

/// Seconds serve-hot's open-loop phase runs when `--seconds` is not
/// given (the `run_seconds` of BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 3.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload <{}|all> --seed <n> [--seconds <s>] [--trace 0|1]\n\
         \x20      benchmark compare BASE.jsonl NEW.jsonl",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Option<Args> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, DEFAULT_SECONDS, false);
    while let Some(flag) = args.next() {
        let value = args.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().ok()?),
            "--seconds" => seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some(Args {
        workload: workload?,
        seed: seed?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("compare") {
        return compare::main(args.skip(1).collect());
    }
    let Some(args) = parse_args(args) else {
        return usage();
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::from_name(&args.workload) else {
        eprintln!("benchmark: unknown workload {:?}", args.workload);
        return usage();
    };
    let run = Run {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    eprintln!(
        "benchmark: {} seed {} ({}s phases, trace {})",
        workload.name(),
        run.seed,
        run.seconds,
        u8::from(run.trace)
    );
    match session::run(&run) {
        Ok(outcome) => {
            print_table(&outcome);
            // The detail line first; the driver-facing result is last.
            println!("{}", detail_json(workload, run.seed, &outcome));
            println!("{}", result_json(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn result_json(o: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(o.correct)),
        ("attempted", Json::Int(o.attempted as i64)),
        ("failed", Json::Int(o.failed as i64)),
        ("metrics", metrics_json(&o.metrics)),
    ])
}

fn detail_json(w: Workload, seed: u64, o: &Outcome) -> Json {
    Json::obj([
        ("workload", Json::str(w.name())),
        ("seed", Json::Int(seed as i64)),
        ("verified", Json::Bool(o.verified)),
        ("diagnostics", metrics_json(&o.diagnostics)),
    ])
}

fn print_table(o: &Outcome) {
    for note in &o.notes {
        eprintln!("  ! {note}");
    }
    for (name, value, unit) in o.metrics.iter().chain(&o.diagnostics) {
        eprintln!("  {name:<36} {value:>16.4} {unit}");
    }
    let verified = match (o.verified, o.correct) {
        (true, _) => "outputs verified",
        (false, true) => "no committed digest for this seed",
        (false, false) => "see the failures above",
    };
    eprintln!(
        "  correct {}  attempted {}  failed {}  ({verified})",
        o.correct, o.attempted, o.failed
    );
}

/// Runs every workload in its own child process and prints one merged
/// line per workload: name, seed, `verified`, and the result object.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let merged = out.ok().filter(|o| o.status.success()).and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout).into_owned();
            let mut lines = text.lines().rev();
            let result = Json::parse(lines.next()?).ok()?;
            let detail = Json::parse(lines.next()?).ok()?;
            let mut fields = detail.as_object()?.clone();
            fields.extend(result.as_object()?.clone());
            Some(Json::Object(fields))
        });
        match merged {
            Some(line) => {
                ok &= line.get("correct").and_then(Json::as_bool) == Some(true);
                println!("{line}");
            }
            None => {
                eprintln!("benchmark: workload {} did not produce a result", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
