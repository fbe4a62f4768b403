//! Command-line entry point; see ../../README.md.
//!
//! `pipebench --workload <name> --seed <u64> --seconds <n> --trace <0|1>`

use std::process::ExitCode;

use baywatch_obs::json::JsonWriter;
use baywatch_pipebench::alloc::CountingAlloc;
use baywatch_pipebench::input::Sizes;
use baywatch_pipebench::{run, Options, Outcome, Workload};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().ok().filter(|s| *s > 0.0).ok_or_else(bad)?,
            "--trace" => {
                trace = matches!(value.as_str(), "0" | "1")
                    .then(|| value == "1")
                    .ok_or_else(bad)?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        sizes: Sizes::FULL,
    })
}

/// Where run.sh says the build came from (`real` crates or the offline
/// stand-ins); numbers from different backends are never compared.
fn host_line() -> String {
    let var = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".to_owned());
    format!(
        "backend = {} | rand {} | rustfft {} | nproc {} | cpu {} | {}",
        var("PIPEBENCH_BACKEND"),
        var("PIPEBENCH_RAND"),
        var("PIPEBENCH_RUSTFFT"),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        var("PIPEBENCH_CPU"),
        var("PIPEBENCH_RUSTC"),
    )
}

/// Writes the harness spans and the run's metrics next to the build.
fn write_trace(
    opts: &Options,
    outcome: &Outcome,
    host: &str,
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
    )
    .join("pipebench");
    std::fs::create_dir_all(&dir)?;
    let mut w = JsonWriter::new();
    w.raw("{");
    w.key("workload");
    w.string(opts.workload.name());
    w.key("seed");
    w.uint(opts.seed);
    w.key("host");
    w.string(host);
    w.key("metrics");
    w.raw("{");
    for (def, value) in &outcome.metrics {
        w.key(def.name);
        w.float(*value, 9);
    }
    w.raw("}");
    w.end_value();
    w.key("spans");
    outcome.recorder.write_json(&mut w);
    w.raw("}");
    let path = dir.join(format!("{}.trace.json", opts.workload.name()));
    std::fs::write(&path, w.finish())?;
    Ok(path)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("pipebench: {message}");
            eprintln!("usage: pipebench --workload <batch_week|batch_tail|detect_mix|stream_soak> --seed <u64> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let host = host_line();
    println!(
        "pipebench {} seed {} seconds {} trace {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!("{host}");
    let outcome = run(&opts);
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (def, value) in &outcome.metrics {
        println!("{:<34} {value:>18.6} {}", def.name, def.unit);
    }
    if opts.trace {
        match write_trace(&opts, &outcome, &host) {
            Ok(path) => println!(
                "# {} spans written to {}",
                outcome.recorder.spans().len(),
                path.display()
            ),
            Err(err) => eprintln!("pipebench: could not write the trace file: {err}"),
        }
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
