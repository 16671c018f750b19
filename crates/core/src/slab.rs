//! Pooled ("slab") CTT decoding for the zero-copy trace store.
//!
//! [`Ctt`]'s owned representation allocates per vertex: every loop/branch
//! sequence is its own `Vec<Seg>`, every leaf its own `Vec<LeafRecord>`.
//! That is fine for a compressor building trees incrementally, but a query
//! daemon that decodes thousands of rank CTTs per second wants the decoded
//! form to be a handful of large allocations with good locality, not a
//! fresh heap object per CST vertex.
//!
//! [`CttSlab`] decodes the exact same wire format as `Ctt` into three flat
//! pools — one vertex-table entry per GID, one shared segment vector, one
//! shared record vector — with each vertex holding index ranges into the
//! pools. Borrowed [`SeqRef`] views (and `&LeafRecord`s) are handed to
//! [`CttFold`] callbacks in exactly the order [`fold_ctt`](crate::fold_ctt)
//! would produce, so any fold-based analysis (the whole compressed-domain
//! query engine) runs on a slab with byte-identical results. The
//! partial-expansion fallback materializes an owned [`Ctt`] on demand via
//! [`CttSource::as_ctt`].

use crate::ctt::{
    check_shape, is_leaf_kind, Ctt, LeafRecord, ShapeError, VertexData, VD_BRANCH, VD_LEAF,
    VD_LOOP, VD_ROOT,
};
use crate::intseq::{decode_segs_into, Seg, SeqRef};
use crate::visit::{CttFold, CttSource, RankScope};
use cypress_cst::{Cst, VertexKind};
use cypress_trace::codec::{Codec, DecodeError, DecodeResult, Decoder};
use std::borrow::Cow;

/// One vertex's slot: index ranges into the shared pools. Mirrors
/// [`VertexData`] without owning any allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SlabVertex {
    Root,
    Loop { segs: (u32, u32), total: u64 },
    Branch { segs: (u32, u32), total: u64 },
    Leaf { records: (u32, u32) },
}

/// One process's compressed trace, decoded into pooled storage. Same wire
/// format as [`Ctt`]; see the module docs for why the in-memory shape
/// differs.
#[derive(Debug, Clone, PartialEq)]
pub struct CttSlab {
    pub rank: u32,
    pub nprocs: u32,
    /// Total virtual application time (ns).
    pub app_time: u64,
    verts: Vec<SlabVertex>,
    /// Every loop/branch sequence's segments, contiguous in GID order.
    segs: Vec<Seg>,
    /// Every leaf's records, contiguous in GID order.
    records: Vec<LeafRecord>,
}

impl CttSlab {
    /// Decode a full buffer (the payload of a `RankCtt` container section),
    /// rejecting trailing bytes — the slab twin of `Ctt::from_bytes`.
    pub fn from_bytes(buf: &[u8]) -> DecodeResult<CttSlab> {
        let mut dec = Decoder::new(buf);
        let slab = CttSlab::decode(&mut dec)?;
        if !dec.is_done() {
            return Err(DecodeError(format!(
                "{} trailing bytes after CttSlab",
                dec.remaining()
            )));
        }
        Ok(slab)
    }

    /// Decode from a decoder position (same guards as `Ctt::decode`).
    pub fn decode(dec: &mut Decoder<'_>) -> DecodeResult<CttSlab> {
        let rank = dec.get_uvar()? as u32;
        let nprocs = dec.get_uvar()? as u32;
        let app_time = dec.get_uvar()?;
        let n = dec.get_uvar()? as usize;
        if n > 1 << 26 {
            return Err(DecodeError(format!("absurd vertex count {n}")));
        }
        let mut slab = CttSlab {
            rank,
            nprocs,
            app_time,
            verts: Vec::with_capacity(n.min(1 << 16)),
            segs: Vec::new(),
            records: Vec::new(),
        };
        for _ in 0..n {
            let v = match dec.get_u8()? {
                VD_ROOT => SlabVertex::Root,
                VD_LOOP => {
                    let (segs, total) = decode_pooled_seq(dec, &mut slab.segs)?;
                    SlabVertex::Loop { segs, total }
                }
                VD_BRANCH => {
                    let (segs, total) = decode_pooled_seq(dec, &mut slab.segs)?;
                    SlabVertex::Branch { segs, total }
                }
                VD_LEAF => {
                    let k = dec.get_uvar()? as usize;
                    if k > 1 << 26 {
                        return Err(DecodeError(format!("absurd record count {k}")));
                    }
                    let lo = slab.records.len() as u32;
                    slab.records.reserve(k.min(1 << 16));
                    for _ in 0..k {
                        slab.records.push(LeafRecord::decode(dec)?);
                    }
                    SlabVertex::Leaf {
                        records: (lo, slab.records.len() as u32),
                    }
                }
                t => return Err(DecodeError(format!("bad VertexData tag {t}"))),
            };
            slab.verts.push(v);
        }
        Ok(slab)
    }

    fn seq(&self, range: (u32, u32), total: u64) -> SeqRef<'_> {
        SeqRef::from_parts(&self.segs[range.0 as usize..range.1 as usize], total)
    }

    /// Number of CTT vertices (mirrors the CST shape).
    pub fn vertex_count(&self) -> usize {
        self.verts.len()
    }

    /// Check that this CTT has `cst`'s shape: one vertex per CST vertex,
    /// each holding data of its vertex's kind.
    pub fn check_shape(&self, cst: &Cst) -> Result<(), ShapeError> {
        check_shape(cst, self.verts.len(), |gid, kind| match self.verts[gid] {
            SlabVertex::Root => matches!(kind, VertexKind::Root),
            SlabVertex::Loop { .. } => matches!(kind, VertexKind::Loop { .. }),
            SlabVertex::Branch { .. } => matches!(kind, VertexKind::Branch { .. }),
            SlabVertex::Leaf { .. } => is_leaf_kind(kind),
        })
    }

    /// Total merged record count across leaves.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// Total uncompressed MPI operation count represented.
    pub fn op_count(&self) -> u64 {
        self.records.iter().map(|r| r.count).sum()
    }

    /// Approximate live memory footprint — the store's byte-budget input.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.verts.capacity() * std::mem::size_of::<SlabVertex>()
            + self.segs.capacity() * std::mem::size_of::<Seg>()
            + self.records.iter().map(|r| r.approx_bytes()).sum::<usize>()
    }

    /// Materialize the equivalent owned [`Ctt`] (used by the
    /// partial-expansion query fallback, which replays through `decompress`).
    pub fn to_ctt(&self) -> Ctt {
        let data = self
            .verts
            .iter()
            .map(|v| match *v {
                SlabVertex::Root => VertexData::Root,
                SlabVertex::Loop { segs, total } => VertexData::Loop {
                    counts: self.seq(segs, total).to_int_seq(),
                },
                SlabVertex::Branch { segs, total } => VertexData::Branch {
                    taken: self.seq(segs, total).to_int_seq(),
                },
                SlabVertex::Leaf { records } => VertexData::Leaf {
                    records: self.records[records.0 as usize..records.1 as usize].to_vec(),
                },
            })
            .collect();
        Ctt {
            rank: self.rank,
            nprocs: self.nprocs,
            app_time: self.app_time,
            data,
        }
    }
}

fn decode_pooled_seq(
    dec: &mut Decoder<'_>,
    pool: &mut Vec<Seg>,
) -> DecodeResult<((u32, u32), u64)> {
    let lo = pool.len() as u32;
    let total = decode_segs_into(dec, pool)?;
    Ok(((lo, pool.len() as u32), total))
}

impl CttSource for CttSlab {
    fn rank(&self) -> u32 {
        self.rank
    }
    fn nprocs(&self) -> u32 {
        self.nprocs
    }
    fn app_time(&self) -> u64 {
        self.app_time
    }
    fn vertex_count(&self) -> usize {
        self.verts.len()
    }
    /// Same walk, same callback order, same borrowed data as
    /// [`fold_ctt`](crate::fold_ctt) over the equivalent [`Ctt`].
    fn fold<F: CttFold>(&self, f: &mut F) {
        let scope = RankScope::One(self.rank);
        for (gid, v) in self.verts.iter().enumerate() {
            let gid = gid as u32;
            match *v {
                SlabVertex::Root => {}
                SlabVertex::Loop { segs, total } => f.on_loop(gid, scope, self.seq(segs, total)),
                SlabVertex::Branch { segs, total } => {
                    f.on_branch(gid, scope, self.seq(segs, total))
                }
                SlabVertex::Leaf { records } => {
                    let recs = &self.records[records.0 as usize..records.1 as usize];
                    for (slot, rec) in recs.iter().enumerate() {
                        f.on_record(gid, slot, scope, rec);
                    }
                }
            }
        }
    }
    fn as_ctt(&self) -> Cow<'_, Ctt> {
        Cow::Owned(self.to_ctt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{compress_trace, CompressConfig};
    use cypress_cst::analyze_program;
    use cypress_minilang::{check_program, parse};
    use cypress_runtime::{trace_program, InterpConfig};

    fn sample_ctts(nprocs: u32) -> Vec<Ctt> {
        let src = r#"fn main() {
            for i in 0..30 {
                if rank() > 0 { send(rank() - 1, 64, 0); }
                if rank() < size() - 1 { recv(rank() + 1, 64, 0); }
                for j in 0..i { barrier(); }
            }
            allreduce(8);
        }"#;
        let p = parse(src).unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        let traces = trace_program(&p, &info, nprocs, &InterpConfig::default()).unwrap();
        traces
            .iter()
            .map(|t| compress_trace(&info.cst, t, &CompressConfig::default()))
            .collect()
    }

    /// Records every callback so per-Ctt and per-slab walks can be diffed.
    #[derive(Default, PartialEq, Debug)]
    struct RecordingFold {
        events: Vec<String>,
    }

    impl CttFold for RecordingFold {
        fn on_loop(&mut self, gid: u32, ranks: RankScope, counts: SeqRef<'_>) {
            self.events.push(format!(
                "loop g{gid} r{:?} sum{} len{} segs{:?}",
                ranks.iter().collect::<Vec<_>>(),
                counts.sum(),
                counts.len(),
                counts.segments()
            ));
        }
        fn on_branch(&mut self, gid: u32, ranks: RankScope, taken: SeqRef<'_>) {
            self.events.push(format!(
                "branch g{gid} r{:?} sum{} len{}",
                ranks.iter().collect::<Vec<_>>(),
                taken.sum(),
                taken.len()
            ));
        }
        fn on_record(&mut self, gid: u32, slot: usize, ranks: RankScope, rec: &LeafRecord) {
            self.events.push(format!(
                "rec g{gid} s{slot} r{:?} {:?}",
                ranks.iter().collect::<Vec<_>>(),
                rec
            ));
        }
    }

    #[test]
    fn slab_decodes_ctt_wire_format_and_round_trips() {
        for ctt in sample_ctts(4) {
            let bytes = ctt.to_bytes();
            let slab = CttSlab::from_bytes(&bytes).unwrap();
            assert_eq!(slab.rank, ctt.rank);
            assert_eq!(slab.nprocs, ctt.nprocs);
            assert_eq!(slab.app_time, ctt.app_time);
            assert_eq!(slab.vertex_count(), ctt.data.len());
            assert_eq!(slab.record_count(), ctt.record_count());
            assert_eq!(slab.op_count(), ctt.op_count());
            assert_eq!(slab.to_ctt(), ctt, "to_ctt must reconstruct exactly");
        }
    }

    #[test]
    fn slab_fold_matches_ctt_fold_exactly() {
        for ctt in sample_ctts(6) {
            let slab = CttSlab::from_bytes(&ctt.to_bytes()).unwrap();
            let mut on_ctt = RecordingFold::default();
            crate::visit::fold_ctt(&ctt, &mut on_ctt);
            let mut on_slab = RecordingFold::default();
            slab.fold(&mut on_slab);
            assert_eq!(on_ctt, on_slab, "rank {}", ctt.rank);
        }
    }

    #[test]
    fn slab_rejects_what_ctt_rejects() {
        let ctt = sample_ctts(2).remove(1);
        let bytes = ctt.to_bytes();
        for cut in 0..bytes.len() {
            assert_eq!(
                CttSlab::from_bytes(&bytes[..cut]).is_err(),
                Ctt::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(CttSlab::from_bytes(&trailing).is_err());
    }

    #[test]
    fn slab_is_leaner_than_owned_ctt() {
        // The point of pooling: fewer, larger allocations. The footprint
        // should never exceed the owned tree's.
        let ctts = sample_ctts(4);
        for ctt in &ctts {
            let slab = CttSlab::from_bytes(&ctt.to_bytes()).unwrap();
            assert!(
                slab.approx_bytes() <= ctt.approx_bytes() + 64,
                "slab {} vs ctt {}",
                slab.approx_bytes(),
                ctt.approx_bytes()
            );
        }
    }
}
