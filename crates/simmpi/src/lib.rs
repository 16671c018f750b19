//! # cypress-simmpi — trace-driven LogGP performance simulator
//!
//! The stand-in for SIM-MPI, the simulator the paper feeds decompressed
//! CYPRESS traces into (§V, Fig. 14): point-to-point operations follow the
//! LogGP model, collectives are decomposed into point-to-point rounds, and
//! per-rank sequences are replayed with real message matching (rendezvous
//! blocking, non-overtaking queues, wildcard-receive resolution, deadlock
//! detection).
//!
//! "Measured" runs feed raw traces ([`from_raw_traces`]); "predicted" runs
//! feed decompressed traces whose compute gaps come from the compressed
//! statistics — the difference between the two is the prediction error the
//! paper reports (Fig. 21).
#![forbid(unsafe_code)]

pub mod engine;
pub mod model;
pub mod report;
pub mod schedule;

pub use engine::{
    from_raw_traces, simulate, simulate_traced, RunOutcome, Sim, SimError, SimOp, SimResult,
    SimSnapshot, WaitReport, WaitSite,
};
pub use model::LogGp;
pub use report::SIM_WIRE_VERSION;
pub use schedule::{simulate_schedule, Schedule, ScheduleStats, Segment};

#[cfg(test)]
mod tests {
    use super::*;
    use cypress_cst::analyze_program;
    use cypress_minilang::{check_program, parse};
    use cypress_runtime::{trace_program, InterpConfig};
    use cypress_trace::event::{MpiOp, MpiParams};

    fn sim_src(src: &str, nprocs: u32) -> Result<SimResult, SimError> {
        let p = parse(src).unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        let traces = trace_program(&p, &info, nprocs, &InterpConfig::default()).unwrap();
        simulate(&from_raw_traces(&traces), &LogGp::default())
    }

    #[test]
    fn simple_send_recv_completes() {
        let r = sim_src(
            r#"fn main() {
                if rank() == 0 { send(1, 1024, 0); }
                if rank() == 1 { recv(0, 1024, 0); }
            }"#,
            2,
        )
        .unwrap();
        assert!(r.total > 0);
        assert!(r.comm_time[1] > 0);
    }

    #[test]
    fn jacobi_completes_and_scales() {
        let src = r#"fn main() {
            let r = rank(); let s = size();
            for k in 0..10 {
                if r < s - 1 { send(r + 1, 1024, 0); }
                if r > 0 { recv(r - 1, 1024, 0); }
                if r > 0 { send(r - 1, 1024, 1); }
                if r < s - 1 { recv(r + 1, 1024, 1); }
                compute(10000);
            }
        }"#;
        let r4 = sim_src(src, 4).unwrap();
        let r16 = sim_src(src, 16).unwrap();
        assert!(r4.total > 0);
        // Same per-rank work; more ranks only add (mild) dependency chains.
        assert!(r16.total >= r4.total);
    }

    #[test]
    fn rendezvous_send_blocks_until_recv_posted() {
        // Big message: the sender cannot finish before the receiver arrives
        // (receiver computes for a long time first).
        let r = sim_src(
            r#"fn main() {
                if rank() == 0 { send(1, 1000000, 0); }
                if rank() == 1 { compute(5000000); recv(0, 1000000, 0); }
            }"#,
            2,
        )
        .unwrap();
        // Sender finish must be >= receiver's compute time (it blocked).
        assert!(
            r.finish[0] >= 5_000_000,
            "rendezvous sender finished at {} before recv posted",
            r.finish[0]
        );
    }

    #[test]
    fn eager_send_does_not_block() {
        let r = sim_src(
            r#"fn main() {
                if rank() == 0 { send(1, 64, 0); }
                if rank() == 1 { compute(5000000); recv(0, 64, 0); }
            }"#,
            2,
        )
        .unwrap();
        assert!(
            r.finish[0] < 1_000_000,
            "eager sender should finish early, got {}",
            r.finish[0]
        );
    }

    #[test]
    fn deadlock_detected() {
        // Both ranks recv first: classic deadlock.
        let err = sim_src(
            r#"fn main() {
                let peer = 1 - rank();
                recv(peer, 64, 0);
                send(peer, 64, 0);
            }"#,
            2,
        )
        .unwrap_err();
        assert!(err.0.contains("deadlock"), "{err}");
    }

    #[test]
    fn nonblocking_exchange_avoids_deadlock() {
        let r = sim_src(
            r#"fn main() {
                let peer = 1 - rank();
                let a = irecv(peer, 64, 0);
                let b = isend(peer, 64, 0);
                waitall(a, b);
            }"#,
            2,
        )
        .unwrap();
        assert!(r.total > 0);
    }

    #[test]
    fn wildcard_sources_resolved() {
        let r = sim_src(
            r#"fn main() {
                if rank() == 0 {
                    recv(any_source(), 64, 0);
                    recv(any_source(), 64, 0);
                } else {
                    compute(1000 * rank());
                    send(0, 64, 0);
                }
            }"#,
            3,
        )
        .unwrap();
        // Rank 1 computes less, so its message is ready first.
        assert_eq!(r.wildcard_sources[0], vec![1, 2]);
    }

    #[test]
    fn collectives_synchronize_all_ranks() {
        let r = sim_src(
            r#"fn main() {
                compute(rank() * 10000);
                barrier();
                allreduce(1024);
            }"#,
            8,
        )
        .unwrap();
        // Everyone leaves the final collective at the same time.
        let f0 = r.finish[0];
        assert!(r.finish.iter().all(|&f| f == f0));
        // The slowest arrival dominates.
        assert!(f0 > 7 * 10_000);
    }

    #[test]
    fn collective_mismatch_is_an_error() {
        let ops = vec![
            vec![SimOp {
                gid: 0,
                op: MpiOp::Barrier,
                params: MpiParams::collective(0),
                pre_gap: 0,
            }],
            vec![SimOp {
                gid: 0,
                op: MpiOp::Allreduce,
                params: MpiParams::collective(8),
                pre_gap: 0,
            }],
        ];
        assert!(simulate(&ops, &LogGp::default()).is_err());
    }

    #[test]
    fn sendrecv_ring_completes() {
        let r = sim_src(
            r#"fn main() {
                let next = (rank() + 1) % size();
                let prev = (rank() + size() - 1) % size();
                for i in 0..5 {
                    sendrecv(next, 4096, 0, prev, 4096, 0);
                }
            }"#,
            6,
        )
        .unwrap();
        assert!(r.total > 0);
    }

    #[test]
    fn non_overtaking_same_src_tag() {
        // Two sends with the same tag must be received in order: sizes
        // distinguish them; simulation just needs to complete.
        let r = sim_src(
            r#"fn main() {
                if rank() == 0 { send(1, 100, 7); send(1, 200, 7); }
                if rank() == 1 { recv(0, 100, 7); recv(0, 200, 7); }
            }"#,
            2,
        )
        .unwrap();
        assert!(r.total > 0);
    }

    #[test]
    fn comm_fraction_between_zero_and_one() {
        let r = sim_src("fn main() { compute(100000); allreduce(64); }", 4).unwrap();
        let f = r.comm_fraction();
        assert!(f > 0.0 && f < 1.0, "fraction {f}");
    }

    #[test]
    fn predicted_matches_measured_shape_through_compression() {
        // Round-trip a trace through CYPRESS compression and compare the
        // simulated totals: gaps become means, so they should be close but
        // need not be identical.
        let src = r#"fn main() {
            for i in 0..20 {
                compute(5000);
                if rank() < size() - 1 { send(rank() + 1, 2048, 0); }
                if rank() > 0 { recv(rank() - 1, 2048, 0); }
            }
        }"#;
        let p = parse(src).unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        let traces = trace_program(&p, &info, 4, &InterpConfig::default()).unwrap();
        let measured = simulate(&from_raw_traces(&traces), &LogGp::default()).unwrap();

        let cfg = cypress_core::CompressConfig::default();
        let predicted_ops: Vec<Vec<SimOp>> = traces
            .iter()
            .map(|t| {
                let ctt = cypress_core::compress_trace(&info.cst, t, &cfg);
                cypress_core::decompress(&info.cst, &ctt)
                    .into_iter()
                    .map(|o| SimOp {
                        gid: o.gid,
                        op: o.op,
                        params: o.params,
                        pre_gap: o.mean_gap,
                    })
                    .collect()
            })
            .collect();
        let predicted = simulate(&predicted_ops, &LogGp::default()).unwrap();
        let err = (predicted.total as f64 - measured.total as f64).abs() / measured.total as f64;
        assert!(err < 0.15, "prediction error {err:.3} too large");
    }
}
