//! Regenerate `crates/winograd/src/kernels.rs` from the codelet generator.
//!
//! ```text
//! cargo run -p lowino-winograd --bin gen_kernels            # rewrite the file
//! cargo run -p lowino-winograd --bin gen_kernels -- --check # exit 1 on drift
//! ```

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/kernels.rs");
    let want = lowino_winograd::codegen::emit_kernels();
    match std::env::args().nth(1).as_deref() {
        None => match std::fs::write(&path, want) {
            Ok(()) => {
                println!("wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("gen_kernels: cannot write {}: {e}", path.display());
                ExitCode::FAILURE
            }
        },
        Some("--check") => match std::fs::read_to_string(&path) {
            Ok(have) if have == want => ExitCode::SUCCESS,
            Ok(_) => {
                eprintln!(
                    "gen_kernels: {} differs from the generator's output; \
                     run `cargo run -p lowino-winograd --bin gen_kernels`",
                    path.display()
                );
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("gen_kernels: cannot read {}: {e}", path.display());
                ExitCode::FAILURE
            }
        },
        Some(other) => {
            eprintln!("gen_kernels: unknown argument {other:?} (expected --check or nothing)");
            ExitCode::from(2)
        }
    }
}
