//! Run every figure/table reproduction in sequence. Equivalent to running
//! the individual `fig*` and `generalization_attack` binaries one after
//! another, to print every figure of the paper in one go.

#![forbid(unsafe_code)]

use std::process::Command;

fn main() {
    let binaries =
        ["fig11", "fig12a", "fig12b", "fig12c", "fig13", "fig14", "generalization_attack"];
    // Re-exec the sibling binaries so each experiment stays independently
    // runnable; fall back to a clear error if one is missing.
    let current = std::env::current_exe().expect("current executable path");
    let dir = current.parent().expect("executable directory").to_path_buf();
    for name in binaries {
        let path = dir.join(name);
        println!();
        let status = Command::new(&path)
            .status()
            .unwrap_or_else(|e| panic!("failed to run {}: {e}", path.display()));
        if !status.success() {
            panic!("{name} exited with {status}");
        }
    }
}
