//! Untraced benchmark runs: the end-to-end metrics, with the system
//! allocator.

fn main() -> std::process::ExitCode {
    perfbench::main_with(false)
}
