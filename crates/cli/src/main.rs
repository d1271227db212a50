//! `crn` — command-line interface to the ADDC (ICDCS 2012) reproduction.
//!
//! `crn help` prints the commands and their flags ([`cli::USAGE`]).

#![forbid(unsafe_code)]

mod cli;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::dispatch(&args) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("error: {e}");
            if e.show_usage {
                eprintln!("{}", cli::USAGE);
            }
            std::process::exit(e.code);
        }
    }
}
