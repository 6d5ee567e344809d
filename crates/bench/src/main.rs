//! `rum-bench`: every experiment, the gate and the list behind one parser.
//! `rum-bench list` says what there is to run.

#![forbid(unsafe_code)]

use rum_bench::{artifact_gate, Command, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match rum_bench::parse(&args) {
        Err(usage) => {
            eprint!("{usage}");
            std::process::exit(2);
        }
        Ok(Command::List) => print!("{}", rum_bench::list()),
        Ok(Command::Gate { update }) => artifact_gate::gate(update),
        Ok(Command::Run(experiment, scale, target)) => {
            rum_bench::conclude((experiment.run)(scale, &target), scale != Scale::Smoke)
        }
    }
}
