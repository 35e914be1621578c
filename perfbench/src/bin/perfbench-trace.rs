//! The traced run (`--trace 1`): the layer ladder, with allocations
//! counted while the `gateway` rung drains.

#[global_allocator]
static ALLOC: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::cli::main(true)
}
