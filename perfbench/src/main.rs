//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line of standard output,
//! one JSON object: `correct`, `attempted`, `failed`, and `metrics`
//! (end-to-end metrics with `--trace 0`, the layer budget with
//! `--trace 1`). Exits non-zero, printing no result, on bad arguments
//! or a workload that cannot run.

use firm_perfbench::{run, Opts, Size, WORKLOADS};

fn parse() -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 7,
        seconds: 30.0,
        trace: false,
        size: Size::Full,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => opts.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload =
        workload.ok_or_else(|| format!("--workload is required, one of {WORKLOADS:?}"))?;
    Ok((workload, opts))
}

fn main() {
    let result = parse().and_then(|(workload, opts)| run(&workload, &opts));
    match result {
        Ok(report) => println!("{}", report.to_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
