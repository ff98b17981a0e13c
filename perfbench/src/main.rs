//! `perfbench --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]`
//!
//! Prints a human-readable report, then the JSON result as the last line.

use perfbench::{run, Options, USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let options = match Options::parse(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&options.work_dir) {
        eprintln!(
            "perfbench: cannot create {}: {e}",
            options.work_dir.display()
        );
        return ExitCode::FAILURE;
    }
    // Spilled runs go to the temp directory; keep them inside the checkout.
    // No other thread exists yet, so changing the environment is sound.
    std::env::set_var("TMPDIR", &options.work_dir);
    let result = run(&options, &mut std::io::stdout().lock());
    let _ = std::fs::remove_dir_all(&options.work_dir);
    match result {
        Ok(outcome) => {
            println!("{}", outcome.json_line());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
