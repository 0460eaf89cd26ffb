//! Records the compiler version in the binary for the report's run stamp.

// The build script reads the compiler cargo chose; no simulation input.
#![allow(clippy::disallowed_methods)]

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
