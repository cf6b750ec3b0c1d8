//! Stamps the benchmark binary with the build it measures: the compiler
//! version and a content hash of every source file that goes into the
//! program. The benchmark runs from plain checkouts that carry no git
//! metadata, so the hash is what tells two builds apart.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Files hashed, relative to this package: the repository's crates, its
/// offline dependency stand-ins, its manifests and the benchmark itself.
const SOURCES: &[&str] = &[
    "../crates",
    "../vendor",
    "../Cargo.toml",
    "../Cargo.lock",
    "src",
    "Cargo.toml",
    "build.rs",
];

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        if let Ok(entries) = fs::read_dir(path) {
            for entry in entries.flatten() {
                collect(&entry.path(), out);
            }
        }
    } else if path.is_file() {
        out.push(path.to_path_buf());
    }
}

/// 64-bit FNV-1a: stable across hosts and toolchains, which is all a
/// build fingerprint needs.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let mut files = Vec::new();
    for source in SOURCES {
        println!("cargo:rerun-if-changed={source}");
        collect(Path::new(source), &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in &files {
        fnv1a(&mut hash, file.to_string_lossy().as_bytes());
        fnv1a(&mut hash, &fs::read(file).unwrap_or_default());
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE={hash:016x}");
}
