//! The LiveNet reproduction's benchmark: one workload per process.
//!
//! `<this program> --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! sets the workload up from the seed, measures for `s` seconds, checks
//! the program's outputs, prints every metric by name and ends with one
//! JSON line. `--trace 0` gives the end-to-end metrics; `--trace 1`
//! repeats the workload with spans around every call into a crate and
//! gives the per-layer metrics instead.

mod alloc;
mod gen;
mod harness;
mod probes;
mod report;
mod seams;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// One run's command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

const USAGE: &str = "usage: --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 20_221_122,
        seconds: 10.0,
        traced: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            args.seconds
        ));
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            workloads::NAMES,
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = workloads::run(&args);
    let listed = if args.traced {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    println!(
        "# workload {} seed {} seconds {} trace {} | {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        harness::environment()
    );
    print!("{}", result.table(listed));
    println!(
        "# operations attempted {} failed {}",
        result.attempted, result.failed
    );
    for n in &result.notes {
        println!("# {n}");
    }
    for p in &result.problems {
        println!("# OUTPUT CHECK FAILED: {p}");
    }
    println!("{}", result.json(listed));
    if result.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse(&argv(
            "--workload brain_storm --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "brain_storm".into(),
                seed: 7,
                seconds: 3.0,
                traced: true
            }
        );
    }

    #[test]
    fn rejects_what_it_cannot_run() {
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--workload brain_storm --seconds 0")).is_err());
        assert!(parse(&argv("--workload brain_storm --trace 2")).is_err());
        assert!(parse(&argv("--workload brain_storm --seed")).is_err());
        assert!(parse(&argv("--frobnicate 1")).is_err());
    }
}
