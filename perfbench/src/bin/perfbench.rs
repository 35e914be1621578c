//! The end-to-end run (`--trace 0`). Keeps the system allocator.

fn main() -> std::process::ExitCode {
    perfbench::cli::main(false)
}
