//! Golden interpreter output: pins the absolute event streams the MiniMPI
//! interpreter emits, not just agreement between two paths through it.
//!
//! Each entry is the crc32 of every rank's `RawTrace` encoding (events in
//! emission order plus `app_time`). The bundled workloads run at
//! `Scale::Quick` on 8 ranks, except where a skeleton needs another count
//! (`bt`/`sp` a square, `leslie3d` a multiple of 8 that is at least 16).
//! A mismatch prints the actual table so a deliberate change to the
//! interpreter's output can be reviewed and re-pinned.

use cypress::cst::analyze_program;
use cypress::minilang::{check_program, parse};
use cypress::runtime::{trace_program, InterpConfig};
use cypress::trace::codec::Codec;
use cypress::workloads::{by_name, Scale};

/// Recursion: a pseudo loop with nested back calls and an int-returning
/// helper, so frames carry locals across recursive invocations.
const RECURSIVE: &str = r#"
fn depth(n) { let d = n % 3; return d + 1; }
fn walk(n) {
    let here = n * 2;
    if n > 0 {
        bcast(0, here + depth(n));
        walk(n - 1);
        allreduce(here);
    }
}
fn main() { for k in 0..4 { walk(k + rank() % 3); } }
"#;

/// Wildcard receives completed by `waitany` and `waitall`.
const WILDCARD: &str = r#"
fn main() {
    let r = rank();
    let s = size();
    for k in 0..6 {
        let a = irecv(any_source(), 256 * (k + 1), k);
        let b = isend((r + k + 1) % s, 256 * (k + 1), k);
        waitany(a, b);
        if k % 2 == 0 { wait(b); } else { waitall(b); }
        let c = irecv(any_source(), 32, 7);
        let d = isend((r + s - 1) % s, 32, 7);
        wait(c);
        waitany(c, d);
        if r % 2 == 0 { recv(any_source(), 64, 9); } else { send((r + 1) % s, 64, 9); }
    }
    barrier();
}
"#;

fn digests(src: &str, nprocs: u32) -> Vec<u32> {
    let prog = parse(src).expect("parse");
    check_program(&prog).expect("check");
    let info = analyze_program(&prog);
    trace_program(&prog, &info, nprocs, &InterpConfig::default())
        .expect("trace")
        .iter()
        .map(|t| cypress::deflate::crc32(&t.to_bytes()))
        .collect()
}

fn workload_procs(name: &str) -> u32 {
    match name {
        "bt" | "sp" => 9,
        "leslie3d" => 16,
        _ => 8,
    }
}

/// Pinned digests, one per rank in rank order.
const GOLDEN: &[(&str, &[u32])] = &[
    (
        "jacobi",
        &[
            0xbf55892b, 0xb9e27615, 0xf8819ddc, 0x856a44bc, 0x149de4ae, 0x2091cedc, 0xffe9c746,
            0x6ea9c0f3,
        ],
    ),
    (
        "bt",
        &[
            0xf066c5d2, 0x2b42d05f, 0x51ad9b29, 0xcfa202a9, 0x8059a70f, 0x1efe22e5, 0x993c766c,
            0x5c37e750, 0x13d46f16,
        ],
    ),
    (
        "cg",
        &[
            0xf301b5d2, 0x666547ff, 0xf3df5be7, 0xe8b84d8a, 0x453baa98, 0x1901179c, 0x00d84d8f,
            0x9ca8b2af,
        ],
    ),
    (
        "dt",
        &[
            0x3ed653a7, 0xd4a60429, 0x757d857d, 0x06be870c, 0xc26b3c3e, 0x66fc8deb, 0x1d4539bc,
            0x75bb6618,
        ],
    ),
    (
        "ep",
        &[
            0x2859eae2, 0xc39520d3, 0x506e306e, 0x9e6e9054, 0x32e2a0ee, 0x31642329, 0xf6593ca2,
            0xeb79371a,
        ],
    ),
    (
        "ft",
        &[
            0xcb83936b, 0xb23c029d, 0x39e85b12, 0x9b8b48f2, 0xd1400976, 0xeab69387, 0x9bf37890,
            0x76b933cc,
        ],
    ),
    (
        "lu",
        &[
            0xf848fc58, 0x3b8fd587, 0x5827cff5, 0xa750d3ee, 0x8796c085, 0x780a4a6b, 0x6e08e7b2,
            0x21a38029,
        ],
    ),
    (
        "mg",
        &[
            0x23a90d3d, 0xc64f6eb9, 0xf0e4e975, 0xa4d3b9cf, 0xe8211b63, 0xcc1bc554, 0xa9ba87f7,
            0x481db2a4,
        ],
    ),
    (
        "sp",
        &[
            0xece86121, 0x4cae1e85, 0xe83e5674, 0x16506f0d, 0x33c2fe7b, 0xa5160b97, 0xf9a208c0,
            0x6b257d9d, 0xbdee1388,
        ],
    ),
    (
        "leslie3d",
        &[
            0xe798e2fd, 0xcef06dcb, 0xd0b4485d, 0x8dd32fc0, 0xbcd7e9f9, 0x3324be34, 0xee64d7e5,
            0xc4dbacad, 0x3c2ffe9f, 0xff976ffd, 0x2ddefa20, 0xf3e492c6, 0xdc82f800, 0x57e7350e,
            0xd960ebcd, 0x38590714,
        ],
    ),
    (
        "recursive",
        &[
            0x03886662, 0x19137477, 0xb3697eb8, 0x17db624a, 0x7d441d80, 0x33a5cab9, 0x570e9849,
            0x38e01700,
        ],
    ),
    (
        "wildcard",
        &[
            0x531d3de8, 0x83e8dbfe, 0x9ecd8073, 0x48279b74, 0x393a0f86, 0x885841d5, 0x0d3b68c2,
            0x7cdce6bf,
        ],
    ),
];

#[test]
fn interpreter_output_matches_golden_digests() {
    let mut actual: Vec<(String, Vec<u32>)> = Vec::new();
    for name in [
        "jacobi", "bt", "cg", "dt", "ep", "ft", "lu", "mg", "sp", "leslie3d",
    ] {
        let w = by_name(name, workload_procs(name), Scale::Quick).expect("bundled workload");
        actual.push((name.to_string(), digests(&w.source, w.nprocs)));
    }
    actual.push(("recursive".to_string(), digests(RECURSIVE, 8)));
    actual.push(("wildcard".to_string(), digests(WILDCARD, 8)));

    let expected: Vec<(String, Vec<u32>)> = GOLDEN
        .iter()
        .map(|(n, d)| (n.to_string(), d.to_vec()))
        .collect();
    if actual != expected {
        let mut table = String::new();
        for (name, ds) in &actual {
            let hex: Vec<String> = ds.iter().map(|d| format!("0x{d:08x}")).collect();
            table.push_str(&format!("    (\"{name}\", &[{}]),\n", hex.join(", ")));
        }
        panic!("interpreter output drifted from the golden digests; actual:\n{table}");
    }
}
