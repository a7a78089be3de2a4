//! The benchmark pins engine, thread count and fork mode through
//! arguments. A caller's `MUTINY_*` variables — which five product
//! crates would honour — must not change what a run measures.

use mutiny_benchmark::json::{self, Json};
use std::process::Command;

/// Runs the smoke-sized `wire-bulk` workload under `env` and returns
/// what identifies its inputs and results.
fn smoke_run(env: &[(&str, &str)]) -> (String, String, f64, f64, f64) {
    let out = Command::new(env!("CARGO_BIN_EXE_mutiny-benchmark"))
        .args(["--workload", "wire-bulk", "--seed", "5", "--seconds", "0.5"])
        .args(["--trace", "0"])
        .envs(env.iter().copied())
        .output()
        .expect("benchmark binary starts");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_num), Some(0.0));

    let file = mutiny_benchmark::stamp::bench_dir()
        .join("out")
        .join("run-wire-bulk.json");
    let detail = json::parse(&std::fs::read_to_string(file).expect("run file")).expect("JSON");
    let text = |key: &str| {
        detail
            .get(key)
            .and_then(Json::as_str)
            .expect(key)
            .to_owned()
    };
    let number = |key: &str| detail.get(key).and_then(Json::as_num).expect(key);
    (
        text("rows_digest"),
        text("engine"),
        number("threads"),
        number("experiments"),
        result
            .get("attempted")
            .and_then(Json::as_num)
            .expect("attempted"),
    )
}

#[test]
fn stray_mutiny_variables_do_not_change_a_run() {
    let clean = smoke_run(&[]);
    let polluted = smoke_run(&[
        ("MUTINY_THREADS", "7"),
        ("MUTINY_STORAGE", "log"),
        ("MUTINY_FORK", "0"),
        ("MUTINY_DECODE_CACHE", "0"),
        ("MUTINY_SCALE", "0.5"),
    ]);
    assert_eq!(clean, polluted);
    assert_eq!(clean.1, "mem");
    assert_eq!(clean.2, 1.0);
}
