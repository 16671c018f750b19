//! End-to-end tests of the `cypress` command-line binary.

use std::fs;
use std::process::Command;

fn cypress() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cypress"))
}

fn write_program(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("ring.mpi");
    fs::write(
        &path,
        r#"
        fn main() {
            for k in 0..30 {
                let a = isend((rank() + 1) % size(), 2048, 0);
                let b = irecv((rank() + size() - 1) % size(), 2048, 0);
                waitall(a, b);
                compute(5000);
            }
            allreduce(8);
        }
        "#,
    )
    .expect("write program");
    path
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cypress-cli-test-{name}-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn cst_command_prints_tree() {
    let dir = tmpdir("cst");
    let prog = write_program(&dir);
    let out = cypress().arg("cst").arg(&prog).output().expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Root(Loop("));
    assert!(stdout.contains("MPI_Isend"));
    assert!(stdout.contains("MPI_Allreduce"));
}

#[test]
fn compress_then_decompress_round_trip() {
    let dir = tmpdir("compress");
    let prog = write_program(&dir);
    let merged = dir.join("ring.ctt");
    let out = cypress()
        .args(["compress"])
        .arg(&prog)
        .args(["-n", "8", "-o"])
        .arg(&merged)
        .output()
        .expect("run compress");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(merged.exists());
    let cst = dir.join("ring.ctt.cst");
    assert!(cst.exists());

    let out = cypress()
        .arg("decompress")
        .arg(&merged)
        .arg("--cst")
        .arg(&cst)
        .args(["-r", "5"])
        .output()
        .expect("run decompress");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // 30 iterations × 3 ops + 1 allreduce = 91 operations for rank 5.
    assert!(stdout.contains("# rank 5: 91 operations"), "{stdout}");
    assert!(stdout.contains("MPI_Waitall"));
}

#[test]
fn stream_compress_inspect_decompress_round_trip() {
    let dir = tmpdir("stream");
    let prog = write_program(&dir);
    let container = dir.join("ring.cytc");
    let out = cypress()
        .args(["compress"])
        .arg(&prog)
        .args(["-n", "8", "--stream", "--per-rank", "-o"])
        .arg(&container)
        .output()
        .expect("run compress --stream");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("streamed"), "{stdout}");
    assert!(stdout.contains("peak resident CTT"), "{stdout}");
    // No CST sidecar: the container is self-describing.
    assert!(!dir.join("ring.cytc.cst").exists());
    let header = fs::read(&container).expect("container");
    assert_eq!(&header[..4], b"CYTC");

    let out = cypress()
        .arg("inspect")
        .arg(&container)
        .output()
        .expect("run inspect");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cypress container v3, 8 ranks"), "{stdout}");
    for kind in ["meta", "cst-text", "merged-ctt", "rank-ctt"] {
        assert!(stdout.contains(kind), "missing {kind} in:\n{stdout}");
    }
    assert!(stdout.contains("rank groups"), "{stdout}");

    // Decompress straight from the container — no --cst needed.
    let out = cypress()
        .arg("decompress")
        .arg(&container)
        .args(["-r", "5"])
        .output()
        .expect("run decompress");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("# rank 5: 91 operations"), "{stdout}");
}

#[test]
fn corrupt_container_is_rejected_cleanly() {
    let dir = tmpdir("corrupt");
    let prog = write_program(&dir);
    let container = dir.join("ring.cytc");
    let out = cypress()
        .args(["compress"])
        .arg(&prog)
        .args(["-n", "4", "--stream", "-o"])
        .arg(&container)
        .output()
        .expect("run compress --stream");
    assert!(out.status.success());
    let mut bytes = fs::read(&container).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    fs::write(&container, &bytes).unwrap();
    let out = cypress()
        .arg("inspect")
        .arg(&container)
        .output()
        .expect("run inspect on corrupt file");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("crc mismatch") || stderr.contains("corrupt"),
        "{stderr}"
    );
}

#[test]
fn simulate_reports_prediction() {
    let dir = tmpdir("simulate");
    let prog = write_program(&dir);
    let out = cypress()
        .arg("simulate")
        .arg(&prog)
        .args(["-n", "4"])
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("measured"));
    assert!(stdout.contains("prediction error"));
}

#[test]
fn dump_prints_events() {
    let dir = tmpdir("dump");
    let prog = write_program(&dir);
    let out = cypress()
        .arg("dump")
        .arg(&prog)
        .args(["-n", "2", "-r", "1"])
        .output()
        .expect("run dump");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("# rank 1/2"));
    assert!(stdout.contains("MPI_Isend"));
}

#[test]
fn metrics_flag_emits_report_and_jsonl() {
    let dir = tmpdir("metrics");
    let prog = write_program(&dir);
    let merged = dir.join("ring.ctt");
    let out = cypress()
        .current_dir(&dir)
        .args(["--metrics", "compress"])
        .arg(&prog)
        .args(["-n", "4", "-o"])
        .arg(&merged)
        .output()
        .expect("run compress --metrics");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== metrics =="), "{stdout}");
    // Every pipeline layer exercised by `compress` must be represented.
    for scope in ["interp", "compressor", "merge", "codec"] {
        assert!(
            stdout.contains(scope),
            "missing scope {scope} in:\n{stdout}"
        );
    }
    assert!(stdout.contains("events_emitted"));
    assert!(stdout.contains("leaf_fold_hits"));
    // The JSONL sidecar exists and every line is a flat JSON object.
    let jsonl = fs::read_to_string(dir.join("results/metrics.jsonl")).expect("metrics.jsonl");
    assert!(!jsonl.trim().is_empty());
    for line in jsonl.lines() {
        assert!(line.starts_with("{\"subsystem\":"), "bad line: {line}");
        assert!(line.ends_with('}'), "bad line: {line}");
    }
}

#[test]
fn bad_input_fails_cleanly() {
    let dir = tmpdir("bad");
    let path = dir.join("broken.mpi");
    fs::write(&path, "fn main() { send(0, 1 }").unwrap();
    let out = cypress().arg("cst").arg(&path).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
    let out = cypress().arg("nonsense").output().expect("run");
    assert!(!out.status.success());
}

#[test]
fn bare_dump_rejects_bad_rank_and_mismatched_cst() {
    let dir = tmpdir("bare-dump");
    let prog = write_program(&dir);
    let merged = dir.join("ring.ctt");
    let out = cypress()
        .args(["compress"])
        .arg(&prog)
        .args(["-n", "16", "-o"])
        .arg(&merged)
        .output()
        .expect("run compress");
    assert!(out.status.success());
    let other = dir.join("tiny.mpi");
    fs::write(&other, "fn main() { barrier(); }").unwrap();
    let other_dump = dir.join("tiny.ctt");
    let out = cypress()
        .args(["compress"])
        .arg(&other)
        .args(["-n", "2", "-o"])
        .arg(&other_dump)
        .output()
        .expect("run compress");
    assert!(out.status.success());

    let decompress = |dump: &std::path::Path, cst: &std::path::Path, rank: &str| {
        let out = cypress()
            .arg("decompress")
            .arg(dump)
            .arg("--cst")
            .arg(cst)
            .args(["-r", rank])
            .output()
            .expect("run decompress");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (code, stderr) = decompress(&merged, &dir.join("ring.ctt.cst"), "99");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("rank 99 out of 0..16"), "{stderr}");
    // A CST from another program, smaller and larger than the dump's.
    for (dump, cst) in [(&merged, "tiny.ctt.cst"), (&other_dump, "ring.ctt.cst")] {
        let (code, stderr) = decompress(dump, &dir.join(cst), "0");
        assert_eq!(code, Some(1), "{stderr}");
        assert!(stderr.contains("--cst has"), "{stderr}");
    }
    // Same vertex count as the ring's CST, different kinds.
    let flat = dir.join("flat.mpi");
    fs::write(
        &flat,
        "fn main() { barrier(); barrier(); barrier(); barrier(); barrier(); }",
    )
    .unwrap();
    let out = cypress()
        .args(["compress"])
        .arg(&flat)
        .args(["-n", "2", "-o"])
        .arg(dir.join("flat.ctt"))
        .output()
        .expect("run compress");
    assert!(out.status.success());
    let (code, stderr) = decompress(&merged, &dir.join("flat.ctt.cst"), "0");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("does not match"), "{stderr}");
}
